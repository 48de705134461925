//! `lightre` — a small regular-expression engine.
//!
//! The paper's IOC recognizer is "a set of regex rules" (§II-C stage 2).
//! The sanctioned offline crate set has no regex library, so this module
//! implements a compact one: a pattern parser, a Thompson NFA, and a DFA
//! subset-compiled from that NFA once, when [`Regex::new`] runs.
//! Matching is a walk over the DFA's transition table — one table load
//! per haystack char, no allocation — with **leftmost-longest**
//! semantics and no backtracking.
//!
//! * **Alphabet classes.** The range bounds of every character class in
//!   the pattern cut all of Unicode into a few dozen classes whose chars
//!   no part of the pattern can tell apart. Table rows have one column
//!   per class: a 128-entry table maps ASCII to its class, a binary
//!   search over the bounds maps everything else, so the DFA is total
//!   over Unicode.
//! * **States.** Each DFA state is an ε-closed set of NFA states — the
//!   set a breadth-first (Pike) simulation would carry after the same
//!   input. State 0 is the dead (empty) set; a state accepts when its set
//!   holds the NFA's accept state.
//! * **State cap.** Subset construction can blow up exponentially
//!   (`.*a.{99}` needs 2¹⁰⁰ states). A pattern whose NFA or DFA would
//!   exceed [`STATE_CAP`] states fails with [`RegexErrorKind::TooLarge`]
//!   instead of building slowly.
//!
//! `^` and `$` anchor the whole pattern: a search only tries
//! offset 0 for `^`, and a `$` match must end at the end of the haystack.
//! A search tries each start in turn, so it costs O(n · w) for a
//! haystack of n chars whose longest partial match is w chars long.
//!
//! Supported syntax — everything the IOC rule set needs:
//!
//! * literals, `.` (any char), escapes `\d \D \w \W \s \S` and `\\ \. \/ …`
//! * character classes `[a-z0-9_]`, negated `[^…]`, ranges and literals
//! * grouping `(…)`, alternation `a|b`
//! * quantifiers `* + ?` and bounded `{m}`, `{m,}`, `{m,n}` (greedy)
//! * anchors `^` and `$` (whole-pattern ends only)
//!
//! Not supported (not needed for IOC rules): capture extraction,
//! non-greedy quantifiers, backreferences, lookaround.

use std::collections::HashMap;
use std::fmt;

/// Most states either automaton of one pattern — its Thompson NFA or the
/// DFA built from it — may have. Bounds construction time and table
/// memory: a pattern that needs more fails with
/// [`RegexErrorKind::TooLarge`]. The IOC rules' DFAs need at most 66.
pub const STATE_CAP: usize = 4096;

// DFA state ids and NFA state indices are stored as `u16`.
const _: () = assert!(STATE_CAP <= u16::MAX as usize);

/// What a [`RegexError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegexErrorKind {
    /// The pattern is malformed.
    Syntax,
    /// The pattern is well-formed, but its NFA or DFA would exceed
    /// [`STATE_CAP`] states.
    TooLarge,
}

/// A compile-time error in a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    /// Which kind of error.
    pub kind: RegexErrorKind,
    /// Byte position in the pattern.
    pub pos: usize,
    /// Description of the problem.
    pub message: String,
}

impl RegexError {
    fn too_large(automaton: &str) -> RegexError {
        RegexError {
            kind: RegexErrorKind::TooLarge,
            pos: 0,
            message: format!("{automaton} would exceed {STATE_CAP} states"),
        }
    }
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for RegexError {}

/// A matched span, in byte offsets into the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Start byte (inclusive).
    pub start: usize,
    /// End byte (exclusive).
    pub end: usize,
}

impl Match {
    /// The matched text.
    pub fn as_str<'t>(&self, haystack: &'t str) -> &'t str {
        &haystack[self.start..self.end]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for zero-width matches.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

// ---------------------------------------------------------------- AST --

#[derive(Debug, Clone)]
enum Ast {
    Empty,
    Literal(char),
    Any,
    Class(CharClass),
    Concat(Vec<Ast>),
    Alt(Vec<Ast>),
    Repeat {
        node: Box<Ast>,
        min: u32,
        max: Option<u32>,
    },
}

impl Ast {
    /// States [`Nfa::compile`] emits for this node (saturating).
    fn nfa_states(&self) -> usize {
        match self {
            Ast::Empty => 0,
            Ast::Literal(_) | Ast::Any | Ast::Class(_) => 1,
            Ast::Concat(parts) => parts
                .iter()
                .fold(0, |n, part| n.saturating_add(part.nfa_states())),
            Ast::Alt(branches) => branches
                .iter()
                .fold(branches.len() - 1, |n, b| n.saturating_add(b.nfa_states())),
            Ast::Repeat { node, min, max } => {
                let body = node.nfa_states();
                match max {
                    // `max` copies, a split before each optional one.
                    Some(max) => body
                        .saturating_mul(*max as usize)
                        .saturating_add((max - min) as usize),
                    // `min` copies, then one looping copy behind a split.
                    None => body.saturating_mul(*min as usize + 1).saturating_add(1),
                }
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct CharClass {
    negated: bool,
    ranges: Vec<(char, char)>,
}

impl CharClass {
    /// Whether the code point `c` is in the class.
    fn contains(&self, c: u32) -> bool {
        let inside = self
            .ranges
            .iter()
            .any(|&(lo, hi)| c >= lo as u32 && c <= hi as u32);
        inside != self.negated
    }

    fn digit() -> CharClass {
        CharClass {
            negated: false,
            ranges: vec![('0', '9')],
        }
    }

    fn word() -> CharClass {
        CharClass {
            negated: false,
            ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
        }
    }

    fn space() -> CharClass {
        CharClass {
            negated: false,
            ranges: vec![
                (' ', ' '),
                ('\t', '\t'),
                ('\n', '\n'),
                ('\r', '\r'),
                ('\u{b}', '\u{c}'),
            ],
        }
    }

    fn negate(mut self) -> CharClass {
        self.negated = !self.negated;
        self
    }
}

// ------------------------------------------------------------- parser --

struct Parser<'p> {
    chars: Vec<char>,
    pos: usize,
    pattern: &'p str,
}

impl<'p> Parser<'p> {
    fn new(pattern: &'p str) -> Self {
        Parser {
            chars: pattern.chars().collect(),
            pos: 0,
            pattern,
        }
    }

    fn err(&self, message: impl Into<String>) -> RegexError {
        RegexError {
            kind: RegexErrorKind::Syntax,
            pos: self.pos.min(self.pattern.len()),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Whether the parser stands on a bare `$` that ends the pattern —
    /// the end anchor. Anywhere else `$` is a literal.
    fn at_end_anchor(&self) -> bool {
        self.peek() == Some('$') && self.pos + 1 == self.chars.len()
    }

    /// Parses the whole pattern, returning `(ast, anchored_start,
    /// anchored_end)`.
    fn parse(mut self) -> Result<(Ast, bool, bool), RegexError> {
        let anchored_start = self.eat('^');
        let ast = self.parse_alt()?;
        let anchored_end = self.at_end_anchor() && self.eat('$');
        if self.pos != self.chars.len() {
            return Err(self.err("unexpected trailing input (unbalanced `)`?)"));
        }
        Ok((ast, anchored_start, anchored_end))
    }

    fn parse_alt(&mut self) -> Result<Ast, RegexError> {
        let mut branches = vec![self.parse_concat()?];
        while self.eat('|') {
            branches.push(self.parse_concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("len checked")
        } else {
            Ast::Alt(branches)
        })
    }

    fn parse_concat(&mut self) -> Result<Ast, RegexError> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' || self.at_end_anchor() {
                break;
            }
            let atom = self.parse_atom()?;
            let atom = self.parse_quantifier(atom)?;
            parts.push(atom);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("len checked"),
            _ => Ast::Concat(parts),
        })
    }

    fn parse_atom(&mut self) -> Result<Ast, RegexError> {
        match self.bump() {
            Some('(') => {
                let inner = self.parse_alt()?;
                if !self.eat(')') {
                    return Err(self.err("missing closing `)`"));
                }
                Ok(inner)
            }
            Some('[') => self.parse_class(),
            Some('.') => Ok(Ast::Any),
            Some('\\') => self.parse_escape(),
            Some(c @ ('*' | '+' | '?')) => Err(self.err(format!("dangling quantifier `{c}`"))),
            Some(c) => Ok(Ast::Literal(c)),
            None => Err(self.err("unexpected end of pattern")),
        }
    }
    fn parse_escape(&mut self) -> Result<Ast, RegexError> {
        match self.bump() {
            Some('d') => Ok(Ast::Class(CharClass::digit())),
            Some('D') => Ok(Ast::Class(CharClass::digit().negate())),
            Some('w') => Ok(Ast::Class(CharClass::word())),
            Some('W') => Ok(Ast::Class(CharClass::word().negate())),
            Some('s') => Ok(Ast::Class(CharClass::space())),
            Some('S') => Ok(Ast::Class(CharClass::space().negate())),
            Some('n') => Ok(Ast::Literal('\n')),
            Some('t') => Ok(Ast::Literal('\t')),
            Some('r') => Ok(Ast::Literal('\r')),
            Some(c) if !c.is_alphanumeric() => Ok(Ast::Literal(c)),
            Some(c) => Err(self.err(format!("unknown escape `\\{c}`"))),
            None => Err(self.err("pattern ends with `\\`")),
        }
    }

    fn parse_class(&mut self) -> Result<Ast, RegexError> {
        let negated = self.eat('^');
        let mut ranges = Vec::new();
        let mut first = true;
        loop {
            let c = match self.bump() {
                None => return Err(self.err("unterminated character class")),
                Some(']') if !first => break,
                Some(']') if first => {
                    // A literal `]` right after `[`.
                    ']'
                }
                Some('\\') => match self.bump() {
                    Some('d') => {
                        ranges.push(('0', '9'));
                        first = false;
                        continue;
                    }
                    Some('w') => {
                        ranges.extend([('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')]);
                        first = false;
                        continue;
                    }
                    Some('s') => {
                        ranges.extend([(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')]);
                        first = false;
                        continue;
                    }
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some(c) => c,
                    None => return Err(self.err("class ends with `\\`")),
                },
                Some(c) => c,
            };
            first = false;
            // Range `a-z`?
            if self.peek() == Some('-')
                && self.chars.get(self.pos + 1).copied() != Some(']')
                && self.chars.get(self.pos + 1).is_some()
            {
                self.bump(); // '-'
                let hi = match self.bump() {
                    Some('\\') => self
                        .bump()
                        .ok_or_else(|| self.err("class ends with `\\`"))?,
                    Some(h) => h,
                    None => return Err(self.err("unterminated range")),
                };
                if hi < c {
                    return Err(self.err(format!("invalid range `{c}-{hi}`")));
                }
                ranges.push((c, hi));
            } else {
                ranges.push((c, c));
            }
        }
        Ok(Ast::Class(CharClass { negated, ranges }))
    }

    fn parse_quantifier(&mut self, atom: Ast) -> Result<Ast, RegexError> {
        let (min, max) = match self.peek() {
            Some('*') => {
                self.bump();
                (0, None)
            }
            Some('+') => {
                self.bump();
                (1, None)
            }
            Some('?') => {
                self.bump();
                (0, Some(1))
            }
            Some('{') => {
                self.bump();
                let min = self.parse_number()?;
                let max = if self.eat(',') {
                    if self.peek() == Some('}') {
                        None
                    } else {
                        Some(self.parse_number()?)
                    }
                } else {
                    Some(min)
                };
                if !self.eat('}') {
                    return Err(self.err("missing `}` in bounded repeat"));
                }
                if let Some(m) = max {
                    if m < min {
                        return Err(self.err(format!("repeat bounds reversed {{{min},{m}}}")));
                    }
                    if m > 256 {
                        return Err(self.err("repeat bound too large (max 256)"));
                    }
                }
                (min, max)
            }
            _ => return Ok(atom),
        };
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
        })
    }

    fn parse_number(&mut self) -> Result<u32, RegexError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        let s: String = self.chars[start..self.pos].iter().collect();
        s.parse()
            .map_err(|_| self.err(format!("number `{s}` out of range")))
    }
}

// ---------------------------------------------------------------- NFA --

#[derive(Debug, Clone)]
enum State {
    /// Consume one char matching the class; go to `next`.
    Char(CharClass, usize),
    /// Consume any char; go to `next`.
    Any(usize),
    /// Fork into both branches (epsilon).
    Split(usize, usize),
    /// Epsilon transition.
    Goto(usize),
    /// Accepting state.
    Accept,
}

/// A Thompson NFA: the input to DFA construction (and, in tests, to the
/// Pike simulation the DFA is checked against).
#[derive(Debug, Clone)]
struct Nfa {
    states: Vec<State>,
    start: usize,
}

/// Index of the NFA's single accepting state (compiled first).
const ACCEPT: usize = 0;

impl Nfa {
    /// Compiles `ast`, or fails if the NFA would exceed [`STATE_CAP`].
    fn compile(ast: &Ast) -> Result<Nfa, RegexError> {
        if ast.nfa_states() >= STATE_CAP {
            return Err(RegexError::too_large("NFA"));
        }
        let mut nfa = Nfa {
            states: vec![State::Accept],
            start: ACCEPT,
        };
        nfa.start = nfa.compile_node(ast, ACCEPT);
        Ok(nfa)
    }

    fn push(&mut self, s: State) -> usize {
        self.states.push(s);
        self.states.len() - 1
    }

    /// Compiles `ast` with all its exits wired to `exit`; returns the
    /// entry state.
    fn compile_node(&mut self, ast: &Ast, exit: usize) -> usize {
        match ast {
            Ast::Empty => exit,
            Ast::Literal(c) => self.push(State::Char(
                CharClass {
                    negated: false,
                    ranges: vec![(*c, *c)],
                },
                exit,
            )),
            Ast::Any => self.push(State::Any(exit)),
            Ast::Class(cc) => self.push(State::Char(cc.clone(), exit)),
            Ast::Concat(parts) => {
                let mut target = exit;
                for part in parts.iter().rev() {
                    target = self.compile_node(part, target);
                }
                target
            }
            Ast::Alt(branches) => {
                let entries: Vec<usize> = branches
                    .iter()
                    .map(|b| self.compile_node(b, exit))
                    .collect();
                // Chain of splits.
                let mut entry = entries[entries.len() - 1];
                for &e in entries.iter().rev().skip(1) {
                    entry = self.push(State::Split(e, entry));
                }
                entry
            }
            Ast::Repeat { node, min, max } => match max {
                Some(max) => {
                    // Expand: min required copies + (max-min) optional.
                    let mut target = exit;
                    for _ in *min..*max {
                        let body = self.compile_node(node, target);
                        target = self.push(State::Split(body, target));
                    }
                    for _ in 0..*min {
                        target = self.compile_node(node, target);
                    }
                    target
                }
                None => {
                    // min copies then a loop.
                    let split = self.push(State::Goto(0)); // placeholder
                    let body = self.compile_node(node, split);
                    self.states[split] = State::Split(body, exit);
                    let mut target = split;
                    for _ in 0..*min {
                        target = self.compile_node(node, target);
                    }
                    target
                }
            },
        }
    }

    /// Where state `idx` goes on a char whose code point is `c`, if it
    /// consumes one.
    fn step(&self, idx: usize, c: u32) -> Option<usize> {
        match &self.states[idx] {
            State::Char(cc, next) if cc.contains(c) => Some(*next),
            State::Any(next) => Some(*next),
            _ => None,
        }
    }

    /// The sorted, deduplicated bounds of every char-class range: each
    /// range `lo..=hi` contributes `lo` and `hi + 1`. Consecutive bounds
    /// delimit the alphabet classes.
    fn class_bounds(&self) -> Vec<u32> {
        let mut bounds: Vec<u32> = self
            .states
            .iter()
            .filter_map(|s| match s {
                State::Char(cc, _) => Some(cc),
                _ => None,
            })
            .flat_map(|cc| cc.ranges.iter())
            .flat_map(|&(lo, hi)| [lo as u32, hi as u32 + 1])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        bounds
    }
}

/// ε-closure workspace, reused across one subset construction: an
/// epoch-stamped visited mark per NFA state, so no closure clears it.
struct Closure {
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<usize>,
}

impl Closure {
    fn new(nfa: &Nfa) -> Closure {
        Closure {
            mark: vec![0; nfa.states.len()],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// The sorted ε-closure of `roots`: every char-consuming or accept
    /// state reachable from them without consuming input.
    fn of(&mut self, nfa: &Nfa, roots: impl IntoIterator<Item = usize>) -> Vec<u16> {
        self.epoch += 1;
        self.stack.extend(roots);
        let mut set = Vec::new();
        while let Some(idx) = self.stack.pop() {
            if self.mark[idx] == self.epoch {
                continue;
            }
            self.mark[idx] = self.epoch;
            match nfa.states[idx] {
                State::Split(a, b) => self.stack.extend([b, a]),
                State::Goto(n) => self.stack.push(n),
                _ => set.push(idx as u16),
            }
        }
        set.sort_unstable();
        set
    }
}

// ---------------------------------------------------------------- DFA --

/// Subset-construction bookkeeping: the DFA id of every NFA set seen so
/// far, and the sets in id order (each taken once its row is built).
#[derive(Default)]
struct Subsets {
    ids: HashMap<Vec<u16>, u16>,
    sets: Vec<Vec<u16>>,
}

impl Subsets {
    /// The id of `set`, numbering it next if it is new.
    fn intern(&mut self, set: Vec<u16>) -> Result<u16, RegexError> {
        if let Some(&id) = self.ids.get(&set) {
            return Ok(id);
        }
        if self.sets.len() == STATE_CAP {
            return Err(RegexError::too_large("DFA"));
        }
        let id = self.sets.len() as u16;
        self.ids.insert(set.clone(), id);
        self.sets.push(set);
        Ok(id)
    }
}

/// The dead state: the empty NFA set, which every class maps to itself.
const DEAD: usize = 0;
/// The start state: the ε-closure of the NFA's start.
const START: usize = 1;

/// A DFA over alphabet classes (see the module docs).
#[derive(Debug, Clone)]
struct Dfa {
    /// Alphabet class of each ASCII char.
    ascii: [u16; 128],
    /// Class bounds: the class of code point `c` is the number of bounds
    /// `<= c`.
    bounds: Vec<u32>,
    /// Columns per table row: the number of classes.
    stride: usize,
    /// Transition table, `next[state * stride + class]`.
    next: Vec<u16>,
    /// Whether each state's NFA set holds the accept state.
    accepting: Vec<bool>,
}

impl Dfa {
    /// Subset construction, or an error past [`STATE_CAP`] states.
    fn build(nfa: &Nfa) -> Result<Dfa, RegexError> {
        let bounds = nfa.class_bounds();
        // The chars of a class are indistinguishable, so its lowest code
        // point stands in for all of them.
        let lows: Vec<u32> = std::iter::once(0).chain(bounds.iter().copied()).collect();
        let mut closure = Closure::new(nfa);
        let mut dfa = Dfa {
            ascii: [0; 128],
            stride: lows.len(),
            bounds,
            next: Vec::new(),
            accepting: Vec::new(),
        };
        for (c, class) in dfa.ascii.iter_mut().enumerate() {
            *class = dfa.bounds.partition_point(|&b| b <= c as u32) as u16;
        }

        let mut subsets = Subsets::default();
        subsets.intern(Vec::new())?;
        subsets.intern(closure.of(nfa, [nfa.start]))?;
        // Ids are handed out in discovery order, so rows are appended in
        // id order as the worklist drains front to back.
        let mut row = 0;
        while row < subsets.sets.len() {
            let set = std::mem::take(&mut subsets.sets[row]);
            dfa.accepting
                .push(set.binary_search(&(ACCEPT as u16)).is_ok());
            for &low in &lows {
                let targets = set.iter().filter_map(|&idx| nfa.step(idx as usize, low));
                let id = subsets.intern(closure.of(nfa, targets))?;
                dfa.next.push(id);
            }
            row += 1;
        }
        Ok(dfa)
    }

    fn class_of(&self, c: char) -> usize {
        match self.ascii.get(c as usize) {
            Some(&class) => class as usize,
            None => self.bounds.partition_point(|&b| b <= c as u32),
        }
    }

    /// End of the longest match starting at `at`; with `anchored_end`,
    /// only a match ending the haystack counts.
    fn longest_match(&self, haystack: &str, at: usize, anchored_end: bool) -> Option<usize> {
        let counts = |end: usize| !anchored_end || end == haystack.len();
        let mut state = START;
        let mut last = (self.accepting[state] && counts(at)).then_some(at);
        let mut offset = at;
        for c in haystack[at..].chars() {
            state = self.next[state * self.stride + self.class_of(c)] as usize;
            if state == DEAD {
                break;
            }
            offset += c.len_utf8();
            if self.accepting[state] && counts(offset) {
                last = Some(offset);
            }
        }
        last
    }
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    dfa: Dfa,
    anchored_start: bool,
    anchored_end: bool,
    pattern: String,
    /// Test builds only: the NFA a Pike-simulating reference instance
    /// (`Regex::pike`) matches with instead of the DFA.
    #[cfg(test)]
    oracle: Option<Nfa>,
}

impl Regex {
    /// Compiles a pattern to a DFA.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let (nfa, anchored_start, anchored_end) = Self::nfa(pattern)?;
        Ok(Regex {
            dfa: Dfa::build(&nfa)?,
            anchored_start,
            anchored_end,
            pattern: pattern.to_string(),
            #[cfg(test)]
            oracle: None,
        })
    }

    /// Parses `pattern` into its NFA and anchors.
    fn nfa(pattern: &str) -> Result<(Nfa, bool, bool), RegexError> {
        let (ast, anchored_start, anchored_end) = Parser::new(pattern).parse()?;
        Ok((Nfa::compile(&ast)?, anchored_start, anchored_end))
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Longest match starting exactly at byte `at` (must be a char
    /// boundary). Returns the end byte of the longest accepting prefix.
    fn match_at(&self, haystack: &str, at: usize) -> Option<usize> {
        #[cfg(test)]
        if let Some(nfa) = &self.oracle {
            return nfa.pike_match_at(haystack, at, self.anchored_end);
        }
        self.dfa.longest_match(haystack, at, self.anchored_end)
    }

    /// Leftmost-longest search starting at or after byte `from`.
    fn find_from(&self, haystack: &str, from: usize) -> Option<Match> {
        // `^` leaves one start to try: 0.
        let last = if self.anchored_start {
            0
        } else {
            haystack.len()
        };
        (from..=last)
            .filter(|&start| haystack.is_char_boundary(start))
            .find_map(|start| {
                self.match_at(haystack, start)
                    .map(|end| Match { start, end })
            })
    }

    /// Leftmost-longest search over the whole haystack.
    pub fn find(&self, haystack: &str) -> Option<Match> {
        self.find_from(haystack, 0)
    }

    /// Iterates non-overlapping matches, left to right.
    pub fn find_iter<'r, 't>(&'r self, haystack: &'t str) -> FindIter<'r, 't> {
        FindIter {
            re: self,
            haystack,
            pos: 0,
        }
    }
}

/// Iterator over non-overlapping matches.
pub struct FindIter<'r, 't> {
    re: &'r Regex,
    haystack: &'t str,
    pos: usize,
}

impl Iterator for FindIter<'_, '_> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        if self.pos > self.haystack.len() {
            return None;
        }
        let m = self.re.find_from(self.haystack, self.pos)?;
        // Advance past the match; one extra char for empty matches.
        self.pos = if m.is_empty() {
            // Step one char forward (or off the end).
            self.haystack[m.end..]
                .chars()
                .next()
                .map(|c| m.end + c.len_utf8())
                .unwrap_or(self.haystack.len() + 1)
        } else {
            m.end
        };
        Some(m)
    }
}

#[cfg(test)]
mod reference {
    //! Test-only support: the breadth-first (Pike) NFA simulation lightre
    //! matched with before it compiled DFAs, kept as the oracle the DFA
    //! is checked against, and table-size accounting.
    use super::*;

    impl Nfa {
        /// Epsilon closure.
        fn add_state(&self, idx: usize, set: &mut Vec<usize>, on: &mut [bool]) {
            if on[idx] {
                return;
            }
            on[idx] = true;
            match self.states[idx] {
                State::Split(a, b) => {
                    self.add_state(a, set, on);
                    self.add_state(b, set, on);
                }
                State::Goto(n) => self.add_state(n, set, on),
                _ => set.push(idx),
            }
        }

        /// Pike simulation of [`Dfa::longest_match`].
        pub(super) fn pike_match_at(
            &self,
            haystack: &str,
            at: usize,
            anchored_end: bool,
        ) -> Option<usize> {
            let tail = &haystack[at..];
            let mut current: Vec<usize> = Vec::with_capacity(8);
            let mut on = vec![false; self.states.len()];
            self.add_state(self.start, &mut current, &mut on);

            let accepts =
                |set: &[usize]| set.iter().any(|&i| matches!(self.states[i], State::Accept));
            let mut last_accept = None;
            if accepts(&current) && (!anchored_end || tail.is_empty()) {
                last_accept = Some(at);
            }
            let mut offset = at;
            for c in tail.chars() {
                let mut next: Vec<usize> = Vec::with_capacity(current.len());
                let mut next_on = vec![false; self.states.len()];
                for &idx in &current {
                    if let Some(n) = self.step(idx, c as u32) {
                        self.add_state(n, &mut next, &mut next_on);
                    }
                }
                offset += c.len_utf8();
                current = next;
                if current.is_empty() {
                    break;
                }
                if accepts(&current) && (!anchored_end || offset == haystack.len()) {
                    last_accept = Some(offset);
                }
            }
            last_accept
        }
    }

    impl Regex {
        /// A reference instance: the same pattern, anchors and NFA as
        /// [`Regex::new`], matching by Pike simulation instead of the DFA.
        pub(crate) fn pike(pattern: &str) -> Result<Regex, RegexError> {
            let mut re = Regex::new(pattern)?;
            re.oracle = Some(Regex::nfa(pattern)?.0);
            Ok(re)
        }

        /// Number of DFA states, the dead state included.
        pub(crate) fn dfa_states(&self) -> usize {
            self.dfa.accepting.len()
        }

        /// Bytes the DFA's tables occupy.
        pub(crate) fn table_bytes(&self) -> usize {
            std::mem::size_of_val(&self.dfa.ascii)
                + std::mem::size_of_val(self.dfa.bounds.as_slice())
                + std::mem::size_of_val(self.dfa.next.as_slice())
                + std::mem::size_of_val(self.dfa.accepting.as_slice())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(re: &str, hay: &str) -> Option<(usize, usize)> {
        Regex::new(re).unwrap().find(hay).map(|m| (m.start, m.end))
    }

    #[test]
    fn literals_and_any() {
        assert_eq!(m("abc", "xxabcxx"), Some((2, 5)));
        assert_eq!(m("a.c", "abc adc"), Some((0, 3)));
        assert_eq!(m("zzz", "abc"), None);
    }

    #[test]
    fn classes() {
        assert_eq!(m("[0-9]+", "ab123cd"), Some((2, 5)));
        assert_eq!(m("[^0-9]+", "123abc"), Some((3, 6)));
        assert_eq!(m("[a-fA-F0-9]{4}", "xx BEef yy"), Some((3, 7)));
        assert_eq!(m("[]x]+", "]x]"), Some((0, 3)));
    }

    #[test]
    fn escapes() {
        assert_eq!(m(r"\d{3}", "ab 456"), Some((3, 6)));
        assert_eq!(m(r"\w+", "  hello_1  "), Some((2, 9)));
        assert_eq!(m(r"\s", "ab cd"), Some((2, 3)));
        assert_eq!(m(r"\.", "a.b"), Some((1, 2)));
        assert_eq!(m(r"a\\b", r"a\b"), Some((0, 3)));
        assert_eq!(m(r"\S+", "  xy "), Some((2, 4)));
    }

    #[test]
    fn quantifiers() {
        assert_eq!(m("ab*c", "ac abc abbc"), Some((0, 2)));
        assert_eq!(m("ab+c", "ac abc"), Some((3, 6)));
        assert_eq!(m("ab?c", "abc"), Some((0, 3)));
        assert_eq!(m("a{2,3}", "aaaa"), Some((0, 3)), "greedy bounded");
        assert_eq!(m("a{2}", "a aa"), Some((2, 4)));
        assert_eq!(m("a{2,}", "aaaaa"), Some((0, 5)));
        assert_eq!(m("(ab){2}", "ababab"), Some((0, 4)));
    }

    #[test]
    fn alternation_and_groups() {
        assert_eq!(m("cat|dog", "hotdog"), Some((3, 6)));
        assert_eq!(m("(cat|dog)s?", "dogs"), Some((0, 4)));
        assert_eq!(m("a(b|c)*d", "abcbcd"), Some((0, 6)));
    }

    #[test]
    fn leftmost_longest() {
        // Leftmost wins over longer-later.
        assert_eq!(m("a+|b+", "aabbb"), Some((0, 2)));
        // Longest at the same start.
        assert_eq!(m("a|ab|abc", "abc"), Some((0, 3)));
    }

    #[test]
    fn anchors() {
        assert_eq!(m("^abc", "abcx"), Some((0, 3)));
        assert_eq!(m("^abc", "xabc"), None);
        assert_eq!(m("abc$", "xxabc"), Some((2, 5)));
        assert_eq!(m("abc$", "abcx"), None);
        assert_eq!(m("^abc$", "abc"), Some((0, 3)));
        assert_eq!(m("^abc$", "aabc"), None);
    }

    #[test]
    fn find_iter_non_overlapping() {
        let re = Regex::new(r"\d+").unwrap();
        let spans: Vec<(usize, usize)> = re
            .find_iter("a1 bb22 ccc333")
            .map(|m| (m.start, m.end))
            .collect();
        assert_eq!(spans, vec![(1, 2), (5, 7), (11, 14)]);
    }

    #[test]
    fn empty_match_iteration_terminates() {
        let re = Regex::new("x*").unwrap();
        let n = re.find_iter("abc").count();
        assert!(n <= 4, "one (possibly empty) match per position max");
    }

    #[test]
    fn ioc_shaped_patterns() {
        // IPv4.
        let ip = Regex::new(r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}").unwrap();
        let mt = ip.find("c2 at 192.168.29.128 now").unwrap();
        assert_eq!(mt.as_str("c2 at 192.168.29.128 now"), "192.168.29.128");
        // Unix path.
        let path = Regex::new(r"(/[A-Za-z0-9._-]+)+").unwrap();
        let hay = "ran /usr/bin/gpg today";
        assert_eq!(path.find(hay).unwrap().as_str(hay), "/usr/bin/gpg");
        // Hash.
        let md5 = Regex::new("[a-fA-F0-9]{32}").unwrap();
        assert!(md5
            .find("hash d41d8cd98f00b204e9800998ecf8427e seen")
            .is_some());
        // CVE.
        let cve = Regex::new(r"CVE-\d{4}-\d{4,7}").unwrap();
        let hay = "exploits CVE-2014-6271 (Shellshock)";
        assert_eq!(cve.find(hay).unwrap().as_str(hay), "CVE-2014-6271");
        // URL.
        let url = Regex::new(r"https?://[^\s]+").unwrap();
        let hay = "see http://evil.example/p now";
        assert_eq!(url.find(hay).unwrap().as_str(hay), "http://evil.example/p");
    }

    #[test]
    fn unicode_haystacks_are_safe() {
        let re = Regex::new("é+").unwrap();
        let hay = "caféé au lait";
        let mt = re.find(hay).unwrap();
        assert_eq!(mt.as_str(hay), "éé");
        let any = Regex::new(".").unwrap();
        assert_eq!(any.find("日本").unwrap().len(), 3);
    }

    /// The longest match from offset 0 covers the haystack only when the
    /// pattern matches all of it.
    #[test]
    fn full_match() {
        let re = Regex::new(r"\d+").unwrap();
        assert_eq!(re.match_at("12345", 0), Some(5));
        assert_eq!(re.match_at("123a", 0), Some(3));
        assert_eq!(re.match_at("", 0), None);
    }

    #[test]
    fn error_reporting() {
        assert!(Regex::new("a(b").is_err());
        assert!(Regex::new("a)b").is_err());
        assert!(Regex::new("[abc").is_err());
        assert!(Regex::new("a{3,1}").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new(r"\q").is_err());
        assert!(Regex::new("a{999}").is_err());
        let e = Regex::new("[z-a]").unwrap_err();
        assert!(e.to_string().contains("invalid range"));
    }

    #[test]
    fn pattern_accessor() {
        let re = Regex::new("abc").unwrap();
        assert_eq!(re.pattern(), "abc");
    }

    /// Reference backtracking matcher for differential testing (exponential
    /// but fine on tiny inputs).
    fn backtrack_full(ast_pat: &str, text: &str) -> bool {
        fn at(re: &Regex, hay: &str) -> bool {
            re.match_at(hay, 0) == Some(hay.len())
        }
        let re = Regex::new(ast_pat).unwrap();
        at(&re, text)
    }

    proptest! {
        /// Matching never panics and spans are in bounds + char-aligned.
        #[test]
        fn never_panics(pat in r"[ab.\*\+\?\|\(\)\[\]0-9]{0,10}", hay in "[ab01]{0,12}") {
            if let Ok(re) = Regex::new(&pat) {
                for m in re.find_iter(&hay).take(20) {
                    prop_assert!(m.end <= hay.len());
                    prop_assert!(hay.is_char_boundary(m.start) && hay.is_char_boundary(m.end));
                }
            }
        }

        /// Concatenations of literals behave like `str::find`.
        #[test]
        fn literal_patterns_match_str_find(needle in "[abc]{1,4}", hay in "[abc]{0,16}") {
            let re = Regex::new(&needle).unwrap();
            let got = re.find(&hay).map(|m| m.start);
            prop_assert_eq!(got, hay.find(&needle));
        }

        /// a{m,n} full-match agrees with a direct length check.
        #[test]
        fn bounded_repeat_counts(mn in 0u32..4, extra in 0u32..4, len in 0usize..10) {
            let max = mn + extra;
            let pat = format!("a{{{mn},{max}}}");
            let text: String = "a".repeat(len);
            let expect = (len as u32) >= mn && (len as u32) <= max;
            prop_assert_eq!(backtrack_full(&pat, &text), expect);
        }
    }

    #[test]
    fn hostile_pattern_fails_fast_at_the_state_cap() {
        let t0 = std::time::Instant::now();
        // Eight chars, 2^100 DFA states.
        let err = Regex::new(".*a.{99}").unwrap_err();
        assert_eq!(err.kind, RegexErrorKind::TooLarge, "{err}");
        assert!(err.to_string().contains("DFA"), "{err}");
        // Nested bounded repeats: 256^3 NFA states, refused before any
        // is built.
        let err = Regex::new("((a{256}){256}){256}").unwrap_err();
        assert_eq!(err.kind, RegexErrorKind::TooLarge, "{err}");
        assert!(err.to_string().contains("NFA"), "{err}");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "refusing must be bounded, took {:?}",
            t0.elapsed()
        );
        // Just under the cap still compiles.
        assert!(Regex::new(".*a.{10}").is_ok());
        assert_eq!(Regex::new("a(b").unwrap_err().kind, RegexErrorKind::Syntax);
    }

    #[test]
    fn end_anchor_is_only_a_final_bare_dollar() {
        // An escaped `$` is a literal; an escaped backslash before a
        // final `$` leaves the `$` an anchor.
        assert_eq!(m(r"a\$", "xa$y"), Some((1, 3)));
        assert_eq!(m(r"a\\$", r"a\ a\"), Some((3, 5)));
        assert_eq!(m("a$b", "a$b"), Some((0, 3)));
        assert_eq!(m("a|b$", "ba"), Some((1, 2)));
        assert_eq!(m("$", "ab"), Some((2, 2)));
    }

    #[test]
    fn dfa_classes_split_unicode() {
        // `[^a]` and `.` must both see non-ASCII chars as one char each,
        // and a class bound above ASCII must be honoured.
        let re = Regex::new("[^a]+").unwrap();
        assert_eq!(re.find("aé日b").map(|m| (m.start, m.end)), Some((1, 7)));
        let re = Regex::new("[à-ÿ]+").unwrap();
        assert_eq!(re.find("xéÿĀ").map(|m| (m.start, m.end)), Some((1, 5)));
        assert!(re.dfa_states() <= 3, "dead, start, one accepting state");
    }

    /// The DFA's `match_at` equals the Pike oracle's at every char
    /// boundary, and so do the `find_iter` spans built on it.
    fn agrees_with_pike(pat: &str, hay: &str) -> Result<(), TestCaseError> {
        let (Ok(dfa), Ok(pike)) = (Regex::new(pat), Regex::pike(pat)) else {
            return Ok(());
        };
        for at in (0..=hay.len()).filter(|&i| hay.is_char_boundary(i)) {
            prop_assert_eq!(
                dfa.match_at(hay, at),
                pike.match_at(hay, at),
                "pattern {:?} at {}",
                pat,
                at
            );
        }
        let spans = |re: &Regex| re.find_iter(hay).take(20).collect::<Vec<_>>();
        prop_assert_eq!(spans(&dfa), spans(&pike), "pattern {:?}", pat);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        /// `never_panics`' pattern generator over haystacks with
        /// multi-byte chars.
        #[test]
        fn dfa_matches_pike(pat in r"[ab.\*\+\?\|\(\)\[\]0-9]{0,10}", hay in "[ab01é日’ ]{0,14}") {
            agrees_with_pike(&pat, &hay)?;
        }

        /// Anchors, negated classes, escapes, bounded repeats and a
        /// non-ASCII literal in the pattern.
        #[test]
        fn dfa_matches_pike_rich_syntax(
            pat in r"[abé.\*\+\?\|\(\)\[\]\^\$\-\\dwsDW{},0-3]{0,12}",
            hay in "[ab03é日_\n ]{0,14}",
        ) {
            agrees_with_pike(&pat, &hay)?;
        }
    }
}
