//! Daemon ↔ one-shot equivalence: every response body the daemon produces
//! must be bit-identical to the one-shot reference for the same request —
//! across cold and warm cache states, concurrent clients, server thread
//! counts and LRU eviction.

use dscweaver_serve::client::{self, Client, PipelinedRequest};
use dscweaver_serve::registry::{ProcessEntry, Registry};
use dscweaver_serve::{canonicalize, Renaming};
use dscweaver_serve::server::{ServeConfig, Server};
use dscweaver_serve::service::{handle, oneshot, Request};

/// A small family of **structurally** distinct processes: a guarded
/// diamond plus an `i`-long tail of extra readers, so weave, validation
/// and simulation all have work — and so the family stays distinct under
/// canonicalization (alpha-variants of one process would share a single
/// canonical entry by design).
fn proc_text(i: usize) -> String {
    let tail: String = (0..i)
        .map(|k| format!("  assign tail{k} reads v{i};\n"))
        .collect();
    format!(
        "process p{i} {{\n var s{i}; var v{i};\n sequence {{\n  assign init{i} writes s{i};\n  switch g{i} reads s{i} {{\n   case T {{ assign x{i} writes v{i}; }}\n   case F {{ assign y{i} writes v{i}; }}\n  }}\n  assign j{i} reads v{i};\n{tail} }}\n}}"
    )
}

fn requests_for(text: &str) -> Vec<(&'static str, Request)> {
    vec![
        (
            "weave",
            Request::Weave {
                text: text.to_string(),
            },
        ),
        (
            "validate",
            Request::Validate {
                text: text.to_string(),
            },
        ),
        (
            "simulate",
            Request::Simulate {
                text: text.to_string(),
                branches: vec![("g0".into(), "T".into())],
            },
        ),
    ]
}

#[test]
fn daemon_matches_oneshot_cold_warm_and_threads() {
    let text = proc_text(0);
    for threads in [1usize, 2, 4, 8] {
        let reg = Registry::new(8, threads);
        for (name, req) in requests_for(&text) {
            let reference = oneshot(&req, 1).body;
            let cold = handle(&reg, &req);
            let warm = handle(&reg, &req);
            assert_eq!(cold.status, 200, "{name}: {}", cold.body);
            assert_eq!(
                cold.body, reference,
                "{name} cold body diverged at {threads} threads"
            );
            assert_eq!(
                warm.body, reference,
                "{name} warm body diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn concurrent_clients_get_identical_bodies() {
    let server = Server::start(&ServeConfig {
        threads: 4,
        cache_capacity: 64,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    let texts: Vec<String> = (0..6).map(proc_text).collect();
    let references: Vec<String> = texts
        .iter()
        .map(|t| {
            oneshot(
                &Request::Weave {
                    text: t.to_string(),
                },
                1,
            )
            .body
        })
        .collect();
    // Two full passes of concurrent clients: the first is all-cold, the
    // second all-warm. Bodies must match the one-shot reference in both.
    for pass in 0..2 {
        let handles: Vec<_> = texts
            .iter()
            .cloned()
            .map(|t| std::thread::spawn(move || client::post(addr, "/v1/weave", &t).unwrap()))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let reply = h.join().unwrap();
            assert_eq!(reply.status, 200, "pass {pass}: {}", reply.body);
            assert_eq!(reply.body, references[i], "pass {pass}, client {i}");
        }
    }
    let stats = client::get(addr, "/v1/stats").unwrap();
    assert!(stats.body.contains("\"misses\":6"), "{}", stats.body);
    assert!(stats.body.contains("\"hits\":6"), "{}", stats.body);
    server.shutdown();
}

#[test]
fn eviction_recompiles_to_identical_responses() {
    // Capacity 2: requesting a third distinct process evicts the first.
    let reg = Registry::new(2, 1);
    let req0 = Request::Weave { text: proc_text(0) };
    let first = handle(&reg, &req0);
    handle(&reg, &Request::Weave { text: proc_text(1) });
    handle(&reg, &Request::Weave { text: proc_text(2) });
    assert_eq!(reg.stats().evictions, 1);
    // Re-requesting the evicted process recompiles (miss) to the exact
    // same body.
    let again = handle(&reg, &req0);
    assert_eq!(again.cache, dscweaver_serve::CacheStatus::Miss);
    assert_eq!(again.body, first.body);
}

#[test]
fn keepalive_and_pipelined_bodies_match_oneshot_across_threads() {
    // The connection mode must never change a body: serial keep-alive
    // requests and a pipelined batch on one connection are pinned
    // bit-identical to the one-shot reference, at every thread count.
    let texts: Vec<String> = (0..4).map(proc_text).collect();
    let references: Vec<String> = texts
        .iter()
        .map(|t| {
            oneshot(
                &Request::Weave {
                    text: t.to_string(),
                },
                1,
            )
            .body
        })
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let server = Server::start(&ServeConfig {
            threads,
            cache_capacity: 64,
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let mut client = Client::connect(server.addr());
        // Serial requests over one reused connection (cold pass, then a
        // warm pass on the same connection).
        for pass in 0..2 {
            for (i, t) in texts.iter().enumerate() {
                let reply = client.post("/v1/weave", t).unwrap();
                assert_eq!(reply.status, 200, "pass {pass}: {}", reply.body);
                assert_eq!(
                    reply.body, references[i],
                    "keep-alive body diverged (threads {threads}, pass {pass}, proc {i})"
                );
                assert!(reply.keep_alive(), "connection must stay open");
            }
        }
        // One pipelined batch: all requests written before any reply is
        // read; replies come back in request order.
        let batch: Vec<PipelinedRequest> = texts
            .iter()
            .map(|t| PipelinedRequest::post("/v1/weave", t.clone()))
            .collect();
        let replies = client.pipeline(&batch).unwrap();
        assert_eq!(replies.len(), texts.len());
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply.status, 200);
            assert_eq!(reply.cache(), "hit", "pipelined warm request {i}");
            assert_eq!(
                reply.body, references[i],
                "pipelined body diverged (threads {threads}, slot {i})"
            );
        }
        // The whole exchange used exactly one connection.
        let stats = client.get("/v1/stats").unwrap();
        assert_eq!(stats.status, 200);
        server.shutdown();
    }
}

#[test]
fn textual_variants_share_artifacts_and_match_their_own_oneshot() {
    let server = Server::start(&ServeConfig {
        threads: 2,
        cache_capacity: 64,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.addr());
    let base = proc_text(0);
    // An alpha-variant: renamed identifiers, extra whitespace, a comment.
    let variant = base
        .replace("p0", "Renamed")
        .replace("s0", "state")
        .replace("v0", "value")
        .replace("init0", "boot")
        .replace("g0", "gate")
        .replace("x0", "left")
        .replace("y0", "right")
        .replace("j0", "join")
        .replace("sequence {", "sequence { # variant\n");
    assert_ne!(base, variant);
    let first = client.post("/v1/weave", &base).unwrap();
    assert_eq!(first.cache(), "miss");
    let shared = client.post("/v1/weave", &variant).unwrap();
    assert_eq!(
        shared.cache(),
        "canonical",
        "variant must hit the canonical entry: {}",
        shared.body
    );
    // The shared body is rendered in the variant's own names and is
    // bit-identical to the variant's one-shot reference.
    let reference = oneshot(
        &Request::Weave {
            text: variant.clone(),
        },
        1,
    );
    assert_eq!(shared.body, reference.body);
    assert!(shared.body.contains("\"process\":\"Renamed\""), "{}", shared.body);
    // Both submissions report the same canonical hash.
    let hash = |body: &str| body.split("\"hash\":\"").nth(1).unwrap()[..16].to_string();
    assert_eq!(hash(&first.body), hash(&shared.body));
    let stats = client.get("/v1/stats").unwrap();
    assert!(stats.body.contains("\"canonical_hits\":1"), "{}", stats.body);
    server.shutdown();
}

/// The body of `POST /v1/reweave?base=…` for `text`.
fn reweave_body(reg: &Registry, base: u64, text: &str) -> String {
    let resp = handle(
        reg,
        &Request::Reweave {
            text: text.to_string(),
            base,
        },
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp.body
}

#[test]
fn daemon_reweave_fingerprint_matches_single_owner_weave() {
    // A re-weave served by the daemon must report the same fingerprint as
    // a single-owner session fed the same revisions.
    let base = proc_text(0);
    let revised = base.replace(
        "assign j0 reads v0;",
        "assign j0 reads v0;\n  assign k0 reads v0;",
    );
    assert_ne!(base, revised);

    let reg = Registry::new(8, 2);
    let entry = reg.lookup_or_build(&base).unwrap().entry;
    let daemon = reweave_body(&reg, entry.hash, &revised);

    let mut session = dscweaver_core::Weaver::new().session();
    let ds0 = dscweaver_serve::ProcessEntry::build_dependencies(&base).unwrap();
    let ds = dscweaver_serve::ProcessEntry::build_dependencies(&revised).unwrap();
    assert_eq!(session.weave(&ds0).unwrap().fingerprint, entry.fingerprint);
    let owner = session.weave(&ds).unwrap();
    assert_eq!(owner.path, dscweaver_core::ReweavePath::Delta);
    assert!(
        daemon.contains(&format!("\"fingerprint\":\"{:016x}\"", owner.fingerprint)),
        "{daemon}"
    );
}

#[test]
fn reweave_body_does_not_depend_on_earlier_reweaves() {
    // Re-weaving revision C from base A answers the same whether or not
    // revision B was re-woven from A first.
    let a = proc_text(1);
    let b = a.replace("assign j1 reads v1;", "assign j1 reads v1;\n  assign k1 reads v1;");
    let c = a.replace("assign tail0 reads v1;", "assign tail0 reads s1;");
    assert!(a != b && a != c);

    let fresh = Registry::new(8, 1);
    let base = fresh.lookup_or_build(&a).unwrap().entry.hash;
    let direct = reweave_body(&fresh, base, &c);

    let advanced = Registry::new(8, 1);
    assert_eq!(advanced.lookup_or_build(&a).unwrap().entry.hash, base);
    reweave_body(&advanced, base, &b);
    assert_eq!(reweave_body(&advanced, base, &c), direct);
}

#[test]
fn labels_shaped_like_canonical_names_render_back_verbatim() {
    // Case labels `a1` and `v0` look like canonical names; render-back
    // used to rewrite them into the tenant's activity and variable names.
    let text = "process P { var x, y; sequence { assign init writes x; switch g reads x { case a1 { assign m writes y; } case v0 { assign n writes y; } } assign j reads y; } }";
    let reg = Registry::new(8, 1);
    let weave = handle(&reg, &Request::Weave { text: text.into() });
    assert_eq!(weave.status, 200, "{}", weave.body);
    assert!(weave.body.contains("domain g { a1, v0 }"), "{}", weave.body);
    assert!(
        weave.body.contains("[g=a1]") && weave.body.contains("[g=v0]"),
        "{}",
        weave.body
    );
    assert!(!weave.body.contains("domain g { g, x }"), "{}", weave.body);

    // Oracle values go through the renaming too: `g:v0` steers into the
    // `v0` case, whatever canonical label it runs under.
    let simulate = |pick: &str| {
        let resp = handle(
            &reg,
            &Request::Simulate {
                text: text.into(),
                branches: vec![("g".into(), pick.into())],
            },
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        resp.body
    };
    let starts = |body: &str, activity: &str| {
        body.contains(&format!("\"kind\":\"Start\",\"activity\":\"{activity}\""))
    };
    let v0 = simulate("v0");
    assert!(starts(&v0, "n") && !starts(&v0, "m"), "{v0}");
    let a1 = simulate("a1");
    assert!(starts(&a1, "m") && !starts(&a1, "n"), "{a1}");
    // A canonical label name the tenant never used steers into no case.
    let c0 = simulate("c0");
    assert!(!starts(&c0, "m") && !starts(&c0, "n"), "{c0}");

    // Plain labels keep their hash: T/F processes canonicalize as before.
    let plain = dscweaver_serve::canonicalize(&proc_text(0)).unwrap();
    assert!(
        plain.text.contains("case T{") && plain.text.contains("case F{"),
        "{}",
        plain.text
    );
    assert_eq!(
        weave.body,
        oneshot(&Request::Weave { text: text.into() }, 1).body
    );
}

#[test]
fn hostile_nesting_is_a_400_not_a_crash() {
    // About 1.1 MB, well under the body limit: unbounded recursion on it
    // would overflow the request thread's stack and abort the daemon.
    let text = format!(
        "process P {{ {} empty x; {} }}",
        "sequence { ".repeat(100_000),
        "} ".repeat(100_000)
    );
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || handle(&Registry::new(4, 1), &Request::Weave { text }))
        .unwrap();
    let resp = worker.join().expect("request thread must not overflow");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("nest deeper"), "{}", resp.body);
}

#[test]
fn hostile_guard_nesting_is_refused_promptly() {
    // 20 nested switches put the innermost activity under 20 guards:
    // lowering it for validation would enumerate 3^20 firing modes.
    let mut body = "assign d writes x;".to_string();
    for i in (0..20).rev() {
        body = format!("switch s{i} reads x {{ case T {{ {body} }} case F {{ empty e{i}; }} }}");
    }
    let text = format!("process P {{ var x; sequence {{ assign w writes x; {body} }} }}");
    let started = std::time::Instant::now();
    let validated = oneshot(&Request::Validate { text: text.clone() }, 1);
    let woven = oneshot(&Request::Weave { text }, 1);
    assert!(started.elapsed() < std::time::Duration::from_secs(20));
    assert_eq!(validated.status, 200, "{}", validated.body);
    assert!(validated.body.contains("\"ok\":false"), "{}", validated.body);
    assert!(validated.body.contains("\"assignments_checked\":0"), "{}", validated.body);
    assert_eq!(woven.status, 200, "{}", woven.body);
}

/// The earlier `json_str`, one `char` at a time (test-only).
fn json_reference(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The weave body as it was rendered before the per-entry template: the
/// minimal set's DSCL rendered afresh, re-lexed back into `renaming`'s
/// names and escaped (test-only oracle).
fn weave_body_reference(entry: &ProcessEntry, renaming: &Renaming) -> String {
    let out = &entry.output;
    format!(
        "{{\"hash\":\"{:016x}\",\"process\":{},\"dependencies\":{},\"sc\":{},\"asc\":{},\"minimal\":{},\"removed\":{},\"fingerprint\":\"{:016x}\",\"minimal_dscl\":{}}}",
        entry.hash,
        json_reference(renaming.original(&entry.process.name).unwrap_or(&entry.process.name)),
        entry.dependencies.deps.len(),
        out.sc.constraint_count(),
        out.asc.constraint_count(),
        out.minimal.constraint_count(),
        out.removed.len(),
        entry.fingerprint,
        json_reference(&renaming.render_original(&out.minimal.to_dscl())),
    )
}

/// A switch over `n` cases whose labels are shaped like canonical names
/// (`a0`, `a1`, …), so all of them are renamed into the `c` namespace at
/// label width 1, 2 or 3.
fn many_labels(n: usize) -> String {
    let cases: String = (0..n)
        .map(|k| format!("   case a{k} {{ assign m{k} writes y; }}\n"))
        .collect();
    format!(
        "process Labels{n} {{\n var x, y;\n sequence {{\n  assign init writes x;\n  switch g reads x {{\n{cases}  }}\n  assign j reads y;\n }}\n}}"
    )
}

/// An alpha-variant of a canonical text: every canonical name becomes a
/// fresh seeded identifier, and every renamed label another label-shaped
/// one in the same sorted order, so the variant canonicalizes back onto
/// `canonical`. Some fresh names are themselves canonical-shaped.
fn alpha_variant(canonical: &str, rng: &mut dscweaver_prng::Rng) -> String {
    let form = canonicalize(canonical).unwrap();
    assert_eq!(form.text, canonical, "not a canonical text");
    let label_prefix = *rng.choose(b"avslpc").unwrap() as char;
    let mut names: std::collections::HashMap<&str, String> = Default::default();
    let mut out = String::new();
    let mut copied = 0;
    let bytes = canonical.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !(bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let token = &canonical[start..i];
        if form.renaming.original(token).is_none() {
            continue;
        }
        out.push_str(&canonical[copied..start]);
        copied = i;
        let next = names.len();
        let name = names.entry(token).or_insert_with(|| {
            if let Some(digits) = token.strip_prefix('c') {
                format!("{label_prefix}{digits}")
            } else if rng.random_bool(0.2) {
                // Canonical-shaped, but another name than the one it
                // stands for.
                format!("{}{}", &token[..1], 1000 + next)
            } else {
                let first = *rng.choose(b"QXZ_").unwrap() as char;
                let len = rng.random_range(8);
                format!("{first}{}_{next}", rng.ascii_string(b"abcxyzKLM019_", len))
            }
        });
        out.push_str(name);
    }
    out.push_str(&canonical[copied..]);
    out
}

#[test]
fn weave_template_bodies_match_the_rerendering_oracle() {
    let service_proc = "process P {\n var x;\n sequence { assign a writes x; assign b reads x; }\n}";
    let services_and_links = "process Purchasing {\n var po, au, sh;\n service Credit { ports 2 async }\n service Ship { ports 1 }\n sequence {\n  receive rec_po from Client writes po;\n  invoke inv_po on Credit port 1 reads po;\n  receive rec_au from Credit writes au;\n  flow {\n   invoke ship on Ship port 1 reads po writes sh;\n   assign bill reads au;\n   assign pack reads po;\n   link ship_to_bill from ship to bill when T;\n   link pack_to_ship from pack to ship;\n  }\n  reply rep to Client reads sh;\n }\n}";
    // Labels shaped like canonical names, mixed with verbatim ones: `c0`
    // and `p0` read as canonical names, `a01` has a leading zero.
    let canonical_shaped_labels = "process C0 {\n var x, y;\n sequence {\n  assign a0 writes x;\n  switch s1 reads x {\n   case c0 { assign v0 writes y; }\n   case p0 { assign l0 writes y; }\n   case a01 { assign c1 writes y; }\n   case T { assign p1 writes y; }\n   case xa1 { empty e; }\n  }\n  flow { assign k reads y; assign m reads y; link l1 from k to m when c0; }\n }\n}";
    let mut bases: Vec<String> = (0..6).map(proc_text).collect();
    bases.extend(
        [service_proc, services_and_links, canonical_shaped_labels]
            .iter()
            .map(|s| s.to_string()),
    );
    bases.extend([3, 12, 105].map(many_labels));

    let mut rng = dscweaver_prng::Rng::seed_from_u64(20);
    for base in &bases {
        let form = canonicalize(base).unwrap();
        let mut texts = vec![base.clone(), form.text.clone()];
        texts.extend((0..4).map(|_| alpha_variant(&form.text, &mut rng)));
        let forms: Vec<_> = texts.iter().map(|t| canonicalize(t).unwrap()).collect();
        for (t, f) in texts.iter().zip(&forms) {
            assert_eq!(f.text, form.text, "variant left the canonical form:\n{t}");
        }
        // A template cut with one variant's renaming, spliced with every
        // other variant's.
        for (i, built) in forms.iter().enumerate() {
            let entry = ProcessEntry::build_canonical(built, 1).unwrap();
            for (j, used) in forms.iter().enumerate() {
                assert_eq!(
                    entry.weave_body(&used.renaming),
                    weave_body_reference(&entry, &used.renaming),
                    "template of variant {i}, names of variant {j}:\n{}",
                    texts[j]
                );
            }
        }
        // The served path: one compile, every later variant a canonical
        // hit, every body the oracle's.
        let reg = Registry::new(4, 1);
        for text in &texts {
            let found = reg.lookup_or_build(text).unwrap();
            let body = handle(&reg, &Request::Weave { text: text.clone() }).body;
            assert_eq!(body, weave_body_reference(&found.entry, &found.renaming), "{text}");
        }
        assert_eq!(reg.stats().misses, 1);
    }
}
