//! The sequencing-construct baseline: executing a Figure-2-style
//! implementation by converting its *structure* into constraints.
//!
//! The conversion makes the paper's critique concrete: a `sequence`
//! construct orders consecutive members whether or not any dependency
//! requires it (§2: "the sequencing between invProduction_po and
//! invProduction_ss is an over-specified dependency"). Running the same
//! discrete-event engine over the structural constraint set and over the
//! optimized minimal set gives an apples-to-apples concurrency/makespan
//! comparison (experiment Ext-D).

use dscweaver_dscl::{Condition, ConstraintSet, Name, Origin, Relation, StateRef};
use dscweaver_model::{Construct, Process};

/// Error for constructs the static conversion cannot express.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructuralError {
    /// `while` loops need dynamic unrolling; the static constraint scheme
    /// (like the paper's) does not iterate.
    WhileUnsupported(String),
}

impl std::fmt::Display for StructuralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructuralError::WhileUnsupported(n) => {
                write!(f, "while loop '{n}' cannot be converted to a static constraint set")
            }
        }
    }
}

impl std::error::Error for StructuralError {}

/// Converts a (while-free) process into its *structural* constraint set:
///
/// * consecutive members of a `sequence` are fully ordered
///   (all exits of item *i* before all entries of item *i+1*);
/// * `flow` orders nothing, but its `link`s become (possibly conditional)
///   constraints;
/// * `switch` guards every activity of each case with a control
///   constraint on the case label (region-based, so dead paths are
///   skippable) and orders the branch evaluator before the case entries.
pub fn structural_constraints(process: &Process) -> Result<ConstraintSet, StructuralError> {
    let mut cs = ConstraintSet::new(format!("{}_constructs", process.name));
    for a in process.activities() {
        cs.add_activity(a.name.clone());
    }
    for (guard, dom) in dscweaver_pdg::guard_domains(process) {
        cs.add_domain(guard, dom.into_iter().map(Name::from).collect());
    }
    // Region control constraints for every activity of every case.
    for d in dscweaver_pdg::control_dependencies(process) {
        cs.push(dscweaver_core::lower(&d));
    }
    lower_construct(&process.root, &mut cs)?;
    // Links.
    for l in process.root.links() {
        let cond = l.condition.as_ref().map(|v| {
            // A link condition names a case label; its guard is the link
            // source's controlling switch. We locate the guard by finding
            // a control dependency on the source with that label; absent
            // one, the condition refers to the source itself (a branch
            // activity).
            Condition::new(l.from.clone(), v.clone())
        });
        cs.push(Relation::HappenBefore {
            from: StateRef::finish(l.from.clone()),
            to: StateRef::start(l.to.clone()),
            cond,
            origin: Origin::Other,
        });
    }
    Ok(cs)
}

/// Entry activities (first to start) and exit activities (last to finish)
/// of a construct.
fn boundaries(c: &Construct) -> (Vec<&str>, Vec<&str>) {
    match c {
        Construct::Act(a) => (vec![&a.name], vec![&a.name]),
        Construct::Sequence(items) => {
            let firsts = items.iter().find_map(|i| {
                let b = boundaries(i);
                (!b.0.is_empty()).then_some(b.0)
            });
            let lasts = items.iter().rev().find_map(|i| {
                let b = boundaries(i);
                (!b.1.is_empty()).then_some(b.1)
            });
            (firsts.unwrap_or_default(), lasts.unwrap_or_default())
        }
        Construct::Flow { branches, .. } => {
            let mut ins = Vec::new();
            let mut outs = Vec::new();
            for b in branches {
                let (i, o) = boundaries(b);
                ins.extend(i);
                outs.extend(o);
            }
            (ins, outs)
        }
        Construct::Switch { branch, cases } => {
            let mut outs = Vec::new();
            for case in cases {
                let (_, o) = boundaries(&case.body);
                if o.is_empty() {
                    outs.push(branch.name.as_str());
                } else {
                    outs.extend(o);
                }
            }
            if cases.is_empty() {
                outs.push(branch.name.as_str());
            }
            (vec![&branch.name], outs)
        }
        Construct::While { cond, .. } => (vec![&cond.name], vec![&cond.name]),
    }
}

fn lower_construct(c: &Construct, cs: &mut ConstraintSet) -> Result<(), StructuralError> {
    match c {
        Construct::Act(_) => Ok(()),
        Construct::Sequence(items) => {
            for item in items {
                lower_construct(item, cs)?;
            }
            for w in items.windows(2) {
                let (_, exits) = boundaries(&w[0]);
                let (entries, _) = boundaries(&w[1]);
                for e in &exits {
                    for s in &entries {
                        cs.push(Relation::before(
                            StateRef::finish(*e),
                            StateRef::start(*s),
                            Origin::Other,
                        ));
                    }
                }
            }
            Ok(())
        }
        Construct::Flow { branches, .. } => {
            for b in branches {
                lower_construct(b, cs)?;
            }
            Ok(())
        }
        Construct::Switch { branch, cases } => {
            for case in cases {
                lower_construct(&case.body, cs)?;
                let (entries, _) = boundaries(&case.body);
                for s in entries {
                    cs.push(Relation::before_if(
                        StateRef::finish(&branch.name),
                        StateRef::start(s),
                        Condition::new(branch.name.clone(), case.label.clone()),
                        Origin::Control,
                    ));
                }
            }
            Ok(())
        }
        Construct::While { cond, .. } => {
            Err(StructuralError::WhileUnsupported(cond.name.clone()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use dscweaver_core::ExecConditions;
    use dscweaver_model::parse_process;

    fn run(cs: &ConstraintSet, oracle: &[(&str, &str)]) -> crate::engine::Schedule {
        let exec = ExecConditions::derive(cs);
        let mut cfg = SimConfig::default();
        for (g, v) in oracle {
            cfg.oracle.insert(g.to_string(), v.to_string());
        }
        simulate(cs, &exec, &cfg)
    }

    #[test]
    fn sequence_fully_orders() {
        let p = parse_process(
            "process P { var x; sequence { assign a writes x; assign b writes x; assign c writes x; } }",
        )
        .unwrap();
        let cs = structural_constraints(&p).unwrap();
        let s = run(&cs, &[]);
        assert!(s.completed());
        assert_eq!(s.trace.makespan(), 3);
        assert_eq!(s.trace.max_concurrency(), 1);
    }

    #[test]
    fn flow_runs_in_parallel() {
        let p = parse_process(
            "process P { var x; flow { assign a writes x; assign b writes x; assign c writes x; } }",
        )
        .unwrap();
        let cs = structural_constraints(&p).unwrap();
        let s = run(&cs, &[]);
        assert_eq!(s.trace.makespan(), 1);
        assert_eq!(s.trace.max_concurrency(), 3);
    }

    #[test]
    fn sequence_of_flows_barriers() {
        let p = parse_process(
            "process P { var x; sequence { flow { assign a writes x; assign b writes x; } flow { assign c writes x; assign d writes x; } } }",
        )
        .unwrap();
        let cs = structural_constraints(&p).unwrap();
        // Full cross product between the two flows.
        assert_eq!(cs.constraint_count(), 4);
        let s = run(&cs, &[]);
        assert_eq!(s.trace.makespan(), 2);
        assert_eq!(s.trace.max_concurrency(), 2);
    }

    #[test]
    fn switch_runs_selected_case_only() {
        let p = parse_process(
            "process P { var c, x; sequence {
               assign init writes c;
               switch s reads c { case T { assign a writes x; } case F { assign b writes x; } }
               assign after reads x;
             } }",
        )
        .unwrap();
        let cs = structural_constraints(&p).unwrap();
        let s = run(&cs, &[("s", "F")]);
        assert!(s.completed(), "stuck: {:?}", s.stuck);
        assert!(s.trace.executed("b"));
        assert!(s.trace.skipped("a"));
        assert!(s.trace.executed("after"));
        assert!(s.trace.verify(&cs).is_empty());
    }

    #[test]
    fn links_order_across_branches() {
        let p = parse_process(
            "process P { var x; flow { sequence { assign a writes x; assign a2 writes x; } sequence { assign b reads x; } link l from a2 to b; } }",
        )
        .unwrap();
        let cs = structural_constraints(&p).unwrap();
        let s = run(&cs, &[]);
        let a2_fin = s.trace.occurrence(&StateRef::finish("a2")).unwrap();
        let b_start = s.trace.occurrence(&StateRef::start("b")).unwrap();
        assert!(a2_fin <= b_start);
    }

    #[test]
    fn while_rejected() {
        let p = parse_process("process P { var n; while c reads n { assign d reads n writes n; } }")
            .unwrap();
        assert!(matches!(
            structural_constraints(&p),
            Err(StructuralError::WhileUnsupported(_))
        ));
    }

    #[test]
    fn over_specification_shows_in_makespan() {
        // Two independent assigns in a sequence (over-specified) vs flow.
        let seq = parse_process(
            "process P { var x, y; sequence { assign a writes x; assign b writes y; } }",
        )
        .unwrap();
        let par = parse_process(
            "process P { var x, y; flow { assign a writes x; assign b writes y; } }",
        )
        .unwrap();
        let s_seq = run(&structural_constraints(&seq).unwrap(), &[]);
        let s_par = run(&structural_constraints(&par).unwrap(), &[]);
        assert_eq!(s_seq.trace.makespan(), 2);
        assert_eq!(s_par.trace.makespan(), 1);
    }
}
