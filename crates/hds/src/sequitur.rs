//! SEQUITUR grammar inference (Nevill-Manning & Witten, 1997).
//!
//! Builds a context-free grammar from a symbol sequence online, maintaining
//! two invariants after every appended symbol:
//!
//! * **digram uniqueness** — no pair of adjacent symbols appears more than
//!   once across all rule bodies (a repeated digram becomes a rule);
//! * **rule utility** — every rule is used at least twice (a rule reduced
//!   to one use is inlined).
//!
//! Chilimbi & Shaham compress their data-reference traces with SEQUITUR and
//! extract hot data streams from the resulting grammar; this implementation
//! follows the classic pointer-based formulation, translated to an
//! index-based arena.

use std::collections::HashMap;

const NIL: u32 = u32::MAX;

/// A grammar symbol: terminal or rule reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sym {
    /// A terminal (trace symbol).
    T(u32),
    /// A reference to rule `r`.
    R(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeSym {
    Guard(u32),
    Sym(Sym),
}

#[derive(Debug, Clone, Copy)]
struct Node {
    sym: NodeSym,
    prev: u32,
    next: u32,
}

/// The SEQUITUR builder. Use [`Grammar::build`] unless streaming symbols.
#[derive(Debug, Default)]
pub struct Sequitur {
    nodes: Vec<Node>,
    freed: Vec<u32>,
    /// Guard node per rule; `NIL` marks a dead (inlined) rule.
    guards: Vec<u32>,
    uses: Vec<u32>,
    digrams: HashMap<(Sym, Sym), u32>,
}

impl Sequitur {
    /// Create a builder with an empty start rule (rule 0).
    pub fn new() -> Self {
        let mut s = Sequitur::default();
        s.new_rule();
        s
    }

    fn new_rule(&mut self) -> u32 {
        let r = self.guards.len() as u32;
        let g = self.alloc(NodeSym::Guard(r));
        self.nodes[g as usize].prev = g;
        self.nodes[g as usize].next = g;
        self.guards.push(g);
        self.uses.push(0);
        r
    }

    fn alloc(&mut self, sym: NodeSym) -> u32 {
        if let NodeSym::Sym(Sym::R(r)) = sym {
            self.uses[r as usize] += 1;
        }
        if let Some(i) = self.freed.pop() {
            self.nodes[i as usize] = Node { sym, prev: NIL, next: NIL };
            i
        } else {
            self.nodes.push(Node { sym, prev: NIL, next: NIL });
            (self.nodes.len() - 1) as u32
        }
    }

    fn dispose(&mut self, n: u32) {
        if let NodeSym::Sym(Sym::R(r)) = self.nodes[n as usize].sym {
            self.uses[r as usize] -= 1;
        }
        self.freed.push(n);
    }

    #[inline]
    fn next(&self, n: u32) -> u32 {
        self.nodes[n as usize].next
    }

    #[inline]
    fn prev(&self, n: u32) -> u32 {
        self.nodes[n as usize].prev
    }

    #[inline]
    fn is_guard(&self, n: u32) -> bool {
        matches!(self.nodes[n as usize].sym, NodeSym::Guard(_))
    }

    fn sym(&self, n: u32) -> Option<Sym> {
        match self.nodes[n as usize].sym {
            NodeSym::Guard(_) => None,
            NodeSym::Sym(s) => Some(s),
        }
    }

    fn digram_key(&self, n: u32) -> Option<(Sym, Sym)> {
        let a = self.sym(n)?;
        let b = self.sym(self.next(n))?;
        Some((a, b))
    }

    fn delete_digram(&mut self, n: u32) {
        if let Some(key) = self.digram_key(n) {
            if self.digrams.get(&key) == Some(&n) {
                self.digrams.remove(&key);
            }
        }
    }

    /// Link `l → r`, un-indexing whatever digram `l` previously headed.
    fn join(&mut self, l: u32, r: u32) {
        if self.next(l) != NIL {
            self.delete_digram(l);
        }
        self.nodes[l as usize].next = r;
        self.nodes[r as usize].prev = l;
    }

    fn insert_after(&mut self, pos: u32, node: u32) {
        let nx = self.next(pos);
        self.join(node, nx);
        self.join(pos, node);
    }

    /// Unlink and dispose a body node.
    fn remove_node(&mut self, n: u32) {
        let p = self.prev(n);
        let nx = self.next(n);
        self.delete_digram(n);
        self.join(p, nx);
        self.dispose(n);
    }

    /// Append a terminal to the start rule, restoring both invariants.
    pub fn push(&mut self, t: u32) {
        let g = self.guards[0];
        let last = self.prev(g);
        let n = self.alloc(NodeSym::Sym(Sym::T(t)));
        self.insert_after(last, n);
        if !self.is_guard(last) {
            self.check(last);
        }
    }

    /// Check the digram headed by `n`; enforce uniqueness.
    fn check(&mut self, n: u32) -> bool {
        let Some(key) = self.digram_key(n) else { return false };
        match self.digrams.get(&key).copied() {
            None => {
                self.digrams.insert(key, n);
                false
            }
            Some(m) if m == n => false,
            Some(m) => {
                // Overlapping occurrences (e.g. "aaa") are left alone.
                if self.next(m) != n && self.next(n) != m {
                    self.do_match(n, m);
                }
                true
            }
        }
    }

    /// The digrams at `ss` and `m` are equal: rewrite both as a rule.
    fn do_match(&mut self, ss: u32, m: u32) {
        let m_prev = self.prev(m);
        let m_next_next = self.next(self.next(m));
        let r;
        if self.is_guard(m_prev) && m_prev == m_next_next {
            // m's digram is the complete body of an existing rule.
            let NodeSym::Guard(rule) = self.nodes[m_prev as usize].sym else { unreachable!() };
            r = rule;
            self.substitute(ss, r);
        } else {
            // Make a new rule from the digram.
            let s1 = self.sym(ss).expect("digram head");
            let s2 = self.sym(self.next(ss)).expect("digram tail");
            r = self.new_rule();
            let g = self.guards[r as usize];
            let n1 = self.alloc(NodeSym::Sym(s1));
            self.insert_after(g, n1);
            let n2 = self.alloc(NodeSym::Sym(s2));
            self.insert_after(n1, n2);
            self.substitute(m, r);
            self.substitute(ss, r);
            // Index the rule body's digram.
            let key = self.digram_key(n1).expect("rule body digram");
            self.digrams.insert(key, n1);
        }
        // Rule utility: if the new rule's first symbol is a rule now used
        // only once, inline it.
        let first = self.next(self.guards[r as usize]);
        if let Some(Sym::R(r2)) = self.sym(first) {
            if self.uses[r2 as usize] == 1 {
                self.expand(first);
            }
        }
    }

    /// Replace the digram starting at `first` with a use of rule `r`.
    fn substitute(&mut self, first: u32, r: u32) {
        let q = self.prev(first);
        let second = self.next(first);
        self.remove_node(second);
        self.remove_node(first);
        let nn = self.alloc(NodeSym::Sym(Sym::R(r)));
        self.insert_after(q, nn);
        if !self.is_guard(q) && self.check(q) {
            return;
        }
        self.check(nn);
    }

    /// Inline the sole remaining use of a rule (`use_node` refers to it).
    fn expand(&mut self, use_node: u32) {
        let Some(Sym::R(r2)) = self.sym(use_node) else { unreachable!("expand on rule use") };
        let q = self.prev(use_node);
        let nx = self.next(use_node);
        let g = self.guards[r2 as usize];
        let f = self.next(g);
        let l = self.prev(g);
        self.delete_digram(use_node);
        self.join(q, f);
        self.join(l, nx);
        if let Some(key) = self.digram_key(l) {
            self.digrams.insert(key, l);
        }
        self.dispose(use_node);
        self.freed.push(g);
        self.guards[r2 as usize] = NIL;
    }

    /// Ids of live rules (0 is the start rule).
    pub fn live_rules(&self) -> impl Iterator<Item = u32> + '_ {
        self.guards.iter().enumerate().filter(|(_, &g)| g != NIL).map(|(i, _)| i as u32)
    }

    /// The body of rule `r` as symbols.
    ///
    /// # Panics
    ///
    /// Panics if `r` is dead or out of range.
    pub fn body(&self, r: u32) -> Vec<Sym> {
        let g = self.guards[r as usize];
        assert_ne!(g, NIL, "rule {r} was inlined");
        let mut out = Vec::new();
        let mut n = self.next(g);
        while n != g {
            out.push(self.sym(n).expect("body symbol"));
            n = self.next(n);
        }
        out
    }

    /// Verify both SEQUITUR invariants plus index consistency; test oracle.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen: HashMap<(Sym, Sym), (u32, usize)> = HashMap::new();
        for r in self.live_rules() {
            let body = self.body(r);
            if r != 0 {
                if body.len() < 2 {
                    return Err(format!("rule {r} has a body of {} symbols", body.len()));
                }
                if self.uses[r as usize] < 2 {
                    return Err(format!("rule {r} used {} < 2 times", self.uses[r as usize]));
                }
            }
            for (i, w) in body.windows(2).enumerate() {
                let key = (w[0], w[1]);
                if w[0] == w[1] {
                    continue; // overlapping digrams like "aaa" are exempt
                }
                if let Some(&(or, oi)) = seen.get(&key) {
                    return Err(format!(
                        "digram {key:?} appears in rule {or}@{oi} and rule {r}@{i}"
                    ));
                }
                seen.insert(key, (r, i));
            }
        }
        Ok(())
    }
}

/// A finished grammar with memoised expansions and rule frequencies.
#[derive(Debug)]
pub struct Grammar {
    seq: Sequitur,
    expansions: Vec<Option<Vec<u32>>>,
    frequencies: Vec<u64>,
}

impl Grammar {
    /// Run SEQUITUR over `input` and prepare the analysis tables.
    pub fn build(input: &[u32]) -> Self {
        let mut seq = Sequitur::new();
        for &t in input {
            seq.push(t);
        }
        Self::from_sequitur(seq)
    }

    /// Wrap an already-built [`Sequitur`].
    pub fn from_sequitur(seq: Sequitur) -> Self {
        let n = seq.guards.len();
        let mut g = Grammar { seq, expansions: vec![None; n], frequencies: vec![0; n] };
        g.compute_frequencies();
        g
    }

    fn compute_frequencies(&mut self) {
        // Topological order: DFS from the start rule, children after
        // parents once all parent contributions are known. The grammar is a
        // DAG, so iterate in reverse-postorder.
        let n = self.seq.guards.len();
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unvisited, 1 in-stack, 2 done
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        let mut bodies: Vec<Option<Vec<Sym>>> = vec![None; n];
        let body_of = |seq: &Sequitur, r: u32| seq.body(r);
        state[0] = 1;
        bodies[0] = Some(body_of(&self.seq, 0));
        while let Some(&mut (r, ref mut i)) = stack.last_mut() {
            let body = bodies[r as usize].as_ref().expect("pushed with body");
            let mut advanced = false;
            while *i < body.len() {
                let s = body[*i];
                *i += 1;
                if let Sym::R(c) = s {
                    if state[c as usize] == 0 {
                        state[c as usize] = 1;
                        bodies[c as usize] = Some(body_of(&self.seq, c));
                        stack.push((c, 0));
                        advanced = true;
                        break;
                    }
                }
            }
            if !advanced && stack.last().map(|&(rr, _)| rr) == Some(r) {
                // All children visited.
                let body_len = bodies[r as usize].as_ref().expect("body").len();
                let _ = body_len;
                state[r as usize] = 2;
                order.push(r);
                stack.pop();
            }
        }
        order.reverse(); // parents before children
        self.frequencies[0] = 1;
        for &r in &order {
            let freq = self.frequencies[r as usize];
            let body = bodies[r as usize].take().expect("visited");
            for s in body {
                if let Sym::R(c) = s {
                    self.frequencies[c as usize] += freq;
                }
            }
        }
    }

    /// The underlying builder.
    pub fn sequitur(&self) -> &Sequitur {
        &self.seq
    }

    /// Live rule ids excluding the start rule.
    pub fn rule_ids(&self) -> Vec<u32> {
        self.seq.live_rules().filter(|&r| r != 0).collect()
    }

    /// Number of live rules excluding the start rule.
    pub fn num_rules(&self) -> usize {
        self.rule_ids().len()
    }

    /// How many times rule `r`'s expansion occurs in the full input
    /// derivation.
    pub fn frequency(&self, r: u32) -> u64 {
        self.frequencies[r as usize]
    }

    /// Terminal expansion of rule `r`, memoised.
    pub fn expansion(&mut self, r: u32) -> Vec<u32> {
        if let Some(e) = &self.expansions[r as usize] {
            return e.clone();
        }
        let body = self.seq.body(r);
        let mut out = Vec::new();
        for s in body {
            match s {
                Sym::T(t) => out.push(t),
                Sym::R(c) => out.extend(self.expansion(c)),
            }
        }
        self.expansions[r as usize] = Some(out.clone());
        out
    }

    /// Expand the start rule — must reproduce the input exactly.
    pub fn expand_input(&mut self) -> Vec<u32> {
        self.expansion(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_checked(input: &[u32]) -> Grammar {
        let mut seq = Sequitur::new();
        for (i, &t) in input.iter().enumerate() {
            seq.push(t);
            seq.check_invariants()
                .unwrap_or_else(|e| panic!("invariant broken after symbol {i}: {e}"));
        }
        let mut g = Grammar::from_sequitur(seq);
        assert_eq!(g.expand_input(), input, "grammar must reproduce the input");
        g
    }

    #[test]
    fn abab_forms_one_rule() {
        let g = build_checked(&[1, 2, 1, 2]);
        assert_eq!(g.num_rules(), 1);
        let r = g.rule_ids()[0];
        assert_eq!(g.seq.body(r), vec![Sym::T(1), Sym::T(2)]);
        assert_eq!(g.frequency(r), 2);
    }

    #[test]
    fn classic_nested_example() {
        // "abcdbcabcd": S → A d? … the well-known result is
        // S → B B? Let the invariants and expansion speak instead, and
        // assert the hierarchy: some rule expands to "abcd" with freq 2 and
        // some to "bc" with freq ≥ 2.
        let a = 1;
        let b = 2;
        let c = 3;
        let d = 4;
        let mut g = build_checked(&[a, b, c, d, b, c, a, b, c, d]);
        let mut found_abcd = false;
        let mut found_bc = false;
        for r in g.rule_ids() {
            let e = g.expansion(r);
            if e == [a, b, c, d] {
                found_abcd = true;
                assert_eq!(g.frequency(r), 2);
            }
            if e == [b, c] {
                found_bc = true;
                assert!(g.frequency(r) >= 2);
            }
        }
        assert!(found_abcd, "abcd should become a rule");
        assert!(found_bc, "bc should become a rule");
    }

    #[test]
    fn overlapping_digrams_do_not_loop() {
        let _ = build_checked(&[7, 7, 7, 7, 7, 7, 7]);
    }

    #[test]
    fn all_distinct_symbols_make_no_rules() {
        let g = build_checked(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(g.num_rules(), 0);
    }

    #[test]
    fn long_repetition_compresses_hierarchically() {
        // (abc)^64: expect deep nesting and very few total symbols.
        let mut input = Vec::new();
        for _ in 0..64 {
            input.extend_from_slice(&[1, 2, 3]);
        }
        let g = build_checked(&input);
        assert!(g.num_rules() >= 2);
        // Total symbols across bodies must be far below the input length.
        let total: usize = g.seq.live_rules().map(|r| g.seq.body(r).len()).sum();
        assert!(total < input.len() / 4, "poor compression: {total} symbols");
    }

    #[test]
    fn frequencies_multiply_through_nesting() {
        // (ab ab)^4 → inner rule ab occurs 8 times.
        let mut input = Vec::new();
        for _ in 0..4 {
            input.extend_from_slice(&[1, 2, 1, 2]);
        }
        let mut g = build_checked(&input);
        let ab = g
            .rule_ids()
            .into_iter()
            .find(|&r| g.expansion(r) == vec![1, 2])
            .expect("ab rule exists");
        assert_eq!(g.frequency(ab), 8);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut g = Grammar::build(&[]);
        assert_eq!(g.expand_input(), Vec::<u32>::new());
        let mut g1 = Grammar::build(&[42]);
        assert_eq!(g1.expand_input(), vec![42]);
        assert_eq!(g1.num_rules(), 0);
    }

    #[test]
    fn randomish_inputs_roundtrip() {
        // Deterministic pseudo-random smoke over several alphabet sizes.
        let mut x = 12345u64;
        for alphabet in [2u32, 3, 5, 16] {
            let input: Vec<u32> = (0..800)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((x >> 33) as u32) % alphabet
                })
                .collect();
            build_checked(&input);
        }
    }
}
