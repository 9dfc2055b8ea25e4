//! Strongly connected components (Tarjan) and cycle detection.
//!
//! Constraint sets must form DAGs for the static scheme to be realizable
//! (§4.1: "conflict dependencies like infinite synchronization sequence can
//! be detected during design stage"). The optimizer and the Petri-net
//! validator both use this module to detect and report such conflicts.

use crate::digraph::{DiGraph, NodeId};

/// Strongly connected components in reverse topological order (each
/// component appears before any component it has edges into... Tarjan emits
/// components in reverse topological order of the condensation).
pub fn tarjan_scc<N, E>(g: &DiGraph<N, E>) -> Vec<Vec<NodeId>> {
    struct State {
        index: u32,
        stack: Vec<NodeId>,
        on_stack: Vec<bool>,
        indices: Vec<Option<u32>>,
        lowlink: Vec<u32>,
        components: Vec<Vec<NodeId>>,
    }

    let bound = g.node_bound();
    let mut st = State {
        index: 0,
        stack: Vec::new(),
        on_stack: vec![false; bound],
        indices: vec![None; bound],
        lowlink: vec![0; bound],
        components: Vec::new(),
    };

    // Iterative Tarjan: frame = (node, iterator position over successors).
    for root in g.node_ids() {
        if st.indices[root.index()].is_some() {
            continue;
        }
        let mut call_stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        st.indices[root.index()] = Some(st.index);
        st.lowlink[root.index()] = st.index;
        st.index += 1;
        st.stack.push(root);
        st.on_stack[root.index()] = true;

        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            let succ: Vec<NodeId> = g.successors(v).collect();
            if *pos < succ.len() {
                let w = succ[*pos];
                *pos += 1;
                match st.indices[w.index()] {
                    None => {
                        st.indices[w.index()] = Some(st.index);
                        st.lowlink[w.index()] = st.index;
                        st.index += 1;
                        st.stack.push(w);
                        st.on_stack[w.index()] = true;
                        call_stack.push((w, 0));
                    }
                    Some(widx) => {
                        if st.on_stack[w.index()] {
                            st.lowlink[v.index()] = st.lowlink[v.index()].min(widx);
                        }
                    }
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    st.lowlink[parent.index()] =
                        st.lowlink[parent.index()].min(st.lowlink[v.index()]);
                }
                if st.lowlink[v.index()] == st.indices[v.index()].unwrap() {
                    let mut comp = Vec::new();
                    loop {
                        let w = st.stack.pop().expect("tarjan stack underflow");
                        st.on_stack[w.index()] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    st.components.push(comp);
                }
            }
        }
    }
    st.components
}

/// True if the graph contains a directed cycle (self-loops count).
pub fn has_cycle<N, E>(g: &DiGraph<N, E>) -> bool {
    if g.node_ids().any(|n| g.find_edge(n, n).is_some()) {
        return true;
    }
    tarjan_scc(g).iter().any(|c| c.len() > 1)
}

/// Returns one directed cycle as a node sequence `[a, b, ..., a]`, if any.
///
/// Used for conflict reporting: the optimizer names the activities on the
/// cycle so a process analyst can see which dependencies contradict.
pub fn find_cycle<N, E>(g: &DiGraph<N, E>) -> Option<Vec<NodeId>> {
    for n in g.node_ids() {
        if g.find_edge(n, n).is_some() {
            return Some(vec![n, n]);
        }
    }
    let sccs = tarjan_scc(g);
    let comp = sccs.into_iter().find(|c| c.len() > 1)?;
    // Walk within the component until a node repeats.
    let in_comp: std::collections::HashSet<NodeId> = comp.iter().copied().collect();
    let start = comp[0];
    let mut path = vec![start];
    let mut seen_at = std::collections::HashMap::new();
    seen_at.insert(start, 0usize);
    let mut cur = start;
    loop {
        let next = g
            .successors(cur)
            .find(|m| in_comp.contains(m))
            .expect("SCC node without intra-component successor");
        if let Some(&pos) = seen_at.get(&next) {
            let mut cycle = path[pos..].to_vec();
            cycle.push(next);
            return Some(cycle);
        }
        seen_at.insert(next, path.len());
        path.push(next);
        cur = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graph_single_node_components() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        let sccs = tarjan_scc(&g);
        assert_eq!(sccs.len(), 3);
        assert!(!has_cycle(&g));
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn two_cycles_found() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        g.add_edge(c, d, ());
        g.add_edge(d, c, ());
        g.add_edge(b, c, ());
        let mut sizes: Vec<usize> = tarjan_scc(&g).iter().map(Vec::len).collect();
        sizes.sort();
        assert_eq!(sizes, vec![2, 2]);
        assert!(has_cycle(&g));
        let cyc = find_cycle(&g).unwrap();
        assert_eq!(cyc.first(), cyc.last());
        assert!(cyc.len() >= 3);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert!(has_cycle(&g));
        assert_eq!(find_cycle(&g), Some(vec![a, a]));
    }

    #[test]
    fn reverse_topological_emission() {
        // a -> b -> c: Tarjan emits sinks first.
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        let sccs = tarjan_scc(&g);
        assert_eq!(sccs[0], vec![c]);
        assert_eq!(sccs[2], vec![a]);
    }

    #[test]
    fn works_after_node_removal() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(c, a, ());
        g.remove_node(b);
        assert!(!has_cycle(&g));
        assert_eq!(tarjan_scc(&g).len(), 2);
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..200_000).map(|_| g.add_node(())).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        assert_eq!(tarjan_scc(&g).len(), 200_000);
    }
}
