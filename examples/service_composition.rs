//! Automatic service composition (§1): "participants of service
//! integration can simply submit their dependencies like a WSCL document
//! to a scheduling engine. The scheduling engine will then combine
//! dependencies from all services to infer a global synchronization
//! scheme."
//!
//! This example plays the scheduling engine: three independently-authored
//! WSCL documents arrive as XML, get parsed, bound to the process's
//! activities, merged with the locally-extracted data dependencies — and
//! out comes a validated global scheme. No participant ever wrote a
//! `sequence` construct.
//!
//! ```sh
//! cargo run --example service_composition
//! ```

use dscweaver::core::Weaver;
use dscweaver::model::parse_process;
use dscweaver::vertical::{weave, VerticalInput};
use dscweaver::wscl::{from_xml, ServiceBinding};

/// The state-aware inventory service insists: reserve before confirm.
const INVENTORY_WSCL: &str = r#"
<Conversation name="Inventory" xmlns="http://www.w3.org/2002/02/wscl10">
  <ConversationInteractions>
    <Interaction interactionType="Receive" id="reserve">
      <InboundXMLDocument id="ReservationRequest"/>
    </Interaction>
    <Interaction interactionType="Receive" id="confirm">
      <InboundXMLDocument id="ConfirmationRequest"/>
    </Interaction>
    <Interaction interactionType="Send" id="ack">
      <OutboundXMLDocument id="ReservationAck"/>
    </Interaction>
  </ConversationInteractions>
  <ConversationTransitions>
    <Transition><SourceInteraction href="reserve"/><DestinationInteraction href="confirm"/></Transition>
    <Transition><SourceInteraction href="confirm"/><DestinationInteraction href="ack"/></Transition>
  </ConversationTransitions>
</Conversation>
"#;

/// The payment service: charge, then it calls back with a receipt.
const PAYMENT_WSCL: &str = r#"
<Conversation name="Payment" xmlns="http://www.w3.org/2002/02/wscl10">
  <ConversationInteractions>
    <Interaction interactionType="Receive" id="charge">
      <InboundXMLDocument id="ChargeRequest"/>
    </Interaction>
    <Interaction interactionType="Send" id="receipt">
      <OutboundXMLDocument id="Receipt"/>
    </Interaction>
  </ConversationInteractions>
  <ConversationTransitions>
    <Transition><SourceInteraction href="charge"/><DestinationInteraction href="receipt"/></Transition>
  </ConversationTransitions>
</Conversation>
"#;

/// The notification service accepts fire-and-forget messages.
const NOTIFY_WSCL: &str = r#"
<Conversation name="Notify" xmlns="http://www.w3.org/2002/02/wscl10">
  <ConversationInteractions>
    <Interaction interactionType="Receive" id="send">
      <InboundXMLDocument id="Notification"/>
    </Interaction>
  </ConversationInteractions>
  <ConversationTransitions/>
</Conversation>
"#;

const ORDER_PROCESS: &str = r#"
process OrderFulfillment {
  var order, receipt, note;
  service Inventory { ports 2 async }
  service Payment   { ports 1 async }
  service Notify    { ports 1 async }

  sequence {
    receive recOrder from Client writes order;
    flow {
      invoke invReserve on Inventory port 1 reads order;
      invoke invConfirm on Inventory port 2 reads order;
      sequence {
        invoke invCharge on Payment port 1 reads order;
        receive recReceipt from Payment writes receipt;
      }
    }
    invoke invNotify on Notify port 1 reads receipt;
    reply replyDone to Client reads receipt;
  }
}
"#;

fn main() {
    let process = parse_process(ORDER_PROCESS).expect("valid process");
    assert!(process.validate().is_empty());

    // Each participant submits its conversation document.
    let conversations = vec![
        (
            from_xml(INVENTORY_WSCL).expect("inventory WSCL"),
            ServiceBinding::new()
                .invoke("reserve", "invReserve")
                .invoke("confirm", "invConfirm"),
        ),
        (
            from_xml(PAYMENT_WSCL).expect("payment WSCL"),
            ServiceBinding::new()
                .invoke("charge", "invCharge")
                .receive("receipt", "recReceipt"),
        ),
        (
            from_xml(NOTIFY_WSCL).expect("notify WSCL"),
            ServiceBinding::new().invoke("send", "invNotify"),
        ),
    ];

    let out = weave(&VerticalInput {
        process: &process,
        conversations: &conversations,
        cooperation: &[],
        weaver: Weaver::new(),
        sim: Default::default(),
    })
    .expect("composable");

    println!("=== Submitted service dependencies ===");
    for d in out.dependencies.of_dimension("service") {
        println!("  {d}");
    }

    println!("\n=== Inferred global scheme (minimal) ===");
    println!("{}", out.weaver.minimal.to_dscl());

    // The key inference: the process NEVER sequenced invReserve and
    // invConfirm — they sit in a parallel flow. The Inventory service's
    // port ordering surfaces as a scheduling constraint automatically.
    let has_port_order = out
        .weaver
        .minimal
        .happen_befores()
        .any(|r| r.to_string() == "F(invReserve) -> S(invConfirm)");
    println!(
        "Inventory's reserve-before-confirm enforced without any sequence construct: {has_port_order}"
    );
    assert!(has_port_order);

    println!("\n{}", out.report());
    assert!(out.ok());
}
