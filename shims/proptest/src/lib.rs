//! Offline stand-in for `proptest`.
//!
//! Implements the slice of the proptest API the workspace's property
//! tests use: the [`proptest!`] macro, [`strategy::Strategy`] with
//! `prop_map`/`boxed`, numeric-range and tuple strategies, `any::<T>()`,
//! `collection::vec`, `string::string_regex` (a generator for a practical
//! regex subset), `prop_oneof!`, and the `prop_assert*`/`prop_assume!`
//! macros. Differences from the real crate, deliberate for an offline
//! test environment:
//!
//! - **No shrinking.** A failing case reports its inputs via the panic
//!   message (`prop_assert*` include the offending values) but is not
//!   minimised.
//! - **Deterministic seeding.** Each test derives its RNG seed from its
//!   own name, so failures reproduce exactly on re-run; there is no
//!   persistence file.

pub mod test_runner {
    /// Per-block runner configuration (`#![proptest_config(...)]`).
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of accepted cases each property must pass.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The property is violated; the runner panics with this message.
        Fail(String),
        /// The inputs were rejected by `prop_assume!`; the case is retried.
        Reject(String),
    }

    impl TestCaseError {
        /// Build a failure.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Build a rejection.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Outcome of one test-case body.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// The generator driving value generation for one property:
    /// xoshiro256++ seeded through splitmix64, the same construction as
    /// `dohperf_netsim::rng::SimRng`. It is a private copy because netsim
    /// dev-depends on this crate.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Deterministic generator seeded from the FNV-1a hash of the
        /// test's name, so each property sees a stable stream across runs.
        pub fn for_test(test_name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            // Outputs 1..=4 of a splitmix64 stream started at `h`.
            let s = [1u64, 2, 3, 4].map(|i| {
                let mut z = h.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            });
            TestRng { s }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform in `[0, span)` by widening multiply (`span` may be
        /// 2^64); the bias is below 2^-64 * span.
        pub(crate) fn below(&mut self, span: u128) -> u64 {
            ((self.next_u64() as u128 * span) >> 64) as u64
        }

        /// Uniform in `[0, 1)` with 53 bits of precision.
        pub(crate) fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Generate-only: strategies draw from the runner's RNG and never
    /// shrink.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map {
                source: self,
                map: f,
            }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.map)(self.source.generate(rng))
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Picks uniformly among alternative strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `options`; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = (0..self.options.len()).generate(rng);
            self.options[idx].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    self.start + rng.below((self.end - self.start) as u128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "cannot sample empty range");
                    start + rng.below((end - start) as u128 + 1) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + (self.end - self.start) * rng.unit()
        }
    }

    // Signed ranges sample through an unsigned offset from the start.
    macro_rules! signed_range_strategy {
        ($($t:ty => $u:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128 - self.start as i128) as $u;
                    let off = rng.below(span as u128);
                    (self.start as i128 + off as i128) as $t
                }
            }
        )*};
    }

    signed_range_strategy!(i8 => u64, i16 => u64, i32 => u64, i64 => u64, isize => u64);

    /// A string literal is a regex strategy (proptest's `&str` impl).
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            crate::string::string_regex(self)
                .unwrap_or_else(|e| panic!("invalid regex literal {self:?}: {e:?}"))
                .generate(rng)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident . $idx:tt),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
        (A.0, B.1, C.2, D.3, E.4, F.5);
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6);
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical uniform strategy, reachable via [`any`].
    pub trait Arbitrary: Sized {
        /// Draw one value uniformly.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    // Integers take the top bits of one draw.
    macro_rules! int_arbitrary {
        ($($t:ty => $shift:expr),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    (rng.next_u64() >> $shift) as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8 => 56, u16 => 48, u32 => 32, u64 => 0, usize => 0, i32 => 32, i64 => 0);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit()
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> [u8; N] {
            let mut out = [0u8; N];
            for b in &mut out {
                *b = u8::arbitrary(rng);
            }
            out
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The admissible lengths of a generated collection.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_excl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange {
                lo: exact,
                hi_excl: exact + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi_excl: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_excl: *r.end() + 1,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = (self.size.lo..self.size.hi_excl).generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` of values from `element`, sized within `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod string {
    //! String generation from a regex subset.
    //!
    //! Supports literals, `.`, escaped characters, groups `(...)`,
    //! alternation `|`, character classes with ranges, negation `[^...]`,
    //! nesting and Java-style `&&` intersection (`[!-~&&[^ ]]`), and the
    //! quantifiers `?`, `*`, `+`, `{m}`, `{m,}`, `{m,n}`. Unbounded
    //! quantifiers generate at most [`UNBOUNDED_MAX`] repetitions.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Repetition cap for `*`, `+` and `{m,}`.
    pub const UNBOUNDED_MAX: u32 = 8;

    /// A regex the generator cannot handle.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error(pub String);

    #[derive(Debug, Clone)]
    enum Node {
        Seq(Vec<Node>),
        Alt(Vec<Node>),
        Lit(char),
        /// Flattened character class: the allowed characters.
        Class(Vec<char>),
        Repeat {
            node: Box<Node>,
            min: u32,
            max: u32,
        },
    }

    /// The strategy returned by [`string_regex`].
    #[derive(Debug, Clone)]
    pub struct RegexGeneratorStrategy {
        root: Node,
    }

    impl Strategy for RegexGeneratorStrategy {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            emit(&self.root, rng, &mut out);
            out
        }
    }

    fn emit(node: &Node, rng: &mut TestRng, out: &mut String) {
        match node {
            Node::Seq(items) => {
                for item in items {
                    emit(item, rng, out);
                }
            }
            Node::Alt(branches) => {
                let idx = (0..branches.len()).generate(rng);
                emit(&branches[idx], rng, out);
            }
            Node::Lit(c) => out.push(*c),
            Node::Class(chars) => {
                let idx = (0..chars.len()).generate(rng);
                out.push(chars[idx]);
            }
            Node::Repeat { node, min, max } => {
                let n = (*min..=*max).generate(rng);
                for _ in 0..n {
                    emit(node, rng, out);
                }
            }
        }
    }

    /// Build a strategy producing strings matched by `pattern`.
    pub fn string_regex(pattern: &str) -> Result<RegexGeneratorStrategy, Error> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut p = Parser { chars, pos: 0 };
        let root = p.parse_alt()?;
        if p.pos != p.chars.len() {
            return Err(Error(format!(
                "unexpected {:?} at offset {}",
                p.chars[p.pos], p.pos
            )));
        }
        Ok(RegexGeneratorStrategy { root })
    }

    struct Parser {
        chars: Vec<char>,
        pos: usize,
    }

    impl Parser {
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

        fn eat(&mut self, want: char) -> Result<(), Error> {
            match self.bump() {
                Some(c) if c == want => Ok(()),
                other => Err(Error(format!("expected {want:?}, found {other:?}"))),
            }
        }

        fn parse_alt(&mut self) -> Result<Node, Error> {
            let mut branches = vec![self.parse_seq()?];
            while self.peek() == Some('|') {
                self.bump();
                branches.push(self.parse_seq()?);
            }
            Ok(if branches.len() == 1 {
                branches.pop().unwrap()
            } else {
                Node::Alt(branches)
            })
        }

        fn parse_seq(&mut self) -> Result<Node, Error> {
            let mut items = Vec::new();
            while let Some(c) = self.peek() {
                if c == ')' || c == '|' {
                    break;
                }
                let atom = self.parse_atom()?;
                items.push(self.parse_quantifier(atom)?);
            }
            Ok(if items.len() == 1 {
                items.pop().unwrap()
            } else {
                Node::Seq(items)
            })
        }

        fn parse_atom(&mut self) -> Result<Node, Error> {
            match self.bump() {
                Some('(') => {
                    let inner = self.parse_alt()?;
                    self.eat(')')?;
                    Ok(inner)
                }
                Some('[') => {
                    let set = self.parse_class_set()?;
                    self.eat(']')?;
                    let chars = set_to_chars(&set);
                    if chars.is_empty() {
                        return Err(Error("empty character class".into()));
                    }
                    Ok(Node::Class(chars))
                }
                Some('.') => Ok(Node::Class((0x20u8..=0x7E).map(char::from).collect())),
                Some('\\') => match self.bump() {
                    Some('d') => Ok(Node::Class(('0'..='9').collect())),
                    Some('w') => {
                        let mut chars: Vec<char> = ('a'..='z').collect();
                        chars.extend('A'..='Z');
                        chars.extend('0'..='9');
                        chars.push('_');
                        Ok(Node::Class(chars))
                    }
                    Some('s') => Ok(Node::Class(vec![' ', '\t'])),
                    Some('n') => Ok(Node::Lit('\n')),
                    Some('t') => Ok(Node::Lit('\t')),
                    Some(c) => Ok(Node::Lit(c)),
                    None => Err(Error("dangling escape".into())),
                },
                Some(c) if c == '*' || c == '+' || c == '?' => {
                    Err(Error(format!("dangling quantifier {c:?}")))
                }
                Some(c) => Ok(Node::Lit(c)),
                None => Err(Error("unexpected end of pattern".into())),
            }
        }

        fn parse_quantifier(&mut self, atom: Node) -> Result<Node, Error> {
            let (min, max) = match self.peek() {
                Some('?') => {
                    self.bump();
                    (0, 1)
                }
                Some('*') => {
                    self.bump();
                    (0, UNBOUNDED_MAX)
                }
                Some('+') => {
                    self.bump();
                    (1, UNBOUNDED_MAX)
                }
                Some('{') => {
                    self.bump();
                    let min = self.parse_number()?;
                    let max = match self.peek() {
                        Some(',') => {
                            self.bump();
                            if self.peek() == Some('}') {
                                min + UNBOUNDED_MAX
                            } else {
                                self.parse_number()?
                            }
                        }
                        _ => min,
                    };
                    self.eat('}')?;
                    if max < min {
                        return Err(Error(format!("bad repetition {{{min},{max}}}")));
                    }
                    (min, max)
                }
                _ => return Ok(atom),
            };
            Ok(Node::Repeat {
                node: Box::new(atom),
                min,
                max,
            })
        }

        fn parse_number(&mut self) -> Result<u32, Error> {
            let mut digits = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() {
                    digits.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            digits
                .parse()
                .map_err(|_| Error("expected number in repetition".into()))
        }

        /// Parse a class body (after `[`, up to but not consuming `]`)
        /// into an ASCII membership set, handling `^` negation, ranges,
        /// nested classes, and `&&` intersection.
        fn parse_class_set(&mut self) -> Result<[bool; 128], Error> {
            let negated = if self.peek() == Some('^') {
                self.bump();
                true
            } else {
                false
            };
            let mut set = [false; 128];
            loop {
                match self.peek() {
                    None => return Err(Error("unterminated character class".into())),
                    Some(']') => break,
                    Some('&') if self.chars.get(self.pos + 1) == Some(&'&') => {
                        self.pos += 2;
                        let rhs = if self.peek() == Some('[') {
                            self.bump();
                            let s = self.parse_class_set()?;
                            self.eat(']')?;
                            s
                        } else {
                            // Bare items after `&&`: collect them as a union.
                            self.parse_class_set()?
                        };
                        for (slot, allowed) in set.iter_mut().zip(rhs.iter()) {
                            *slot &= *allowed;
                        }
                    }
                    Some('[') => {
                        self.bump();
                        let inner = self.parse_class_set()?;
                        self.eat(']')?;
                        for (slot, allowed) in set.iter_mut().zip(inner.iter()) {
                            *slot |= *allowed;
                        }
                    }
                    Some(_) => {
                        let lo = self.parse_class_char()?;
                        if self.peek() == Some('-')
                            && self.chars.get(self.pos + 1).is_some_and(|&c| c != ']')
                        {
                            self.bump();
                            let hi = self.parse_class_char()?;
                            if (hi as u32) < (lo as u32) {
                                return Err(Error(format!("inverted range {lo:?}-{hi:?}")));
                            }
                            for code in (lo as u32)..=(hi as u32) {
                                if code < 128 {
                                    set[code as usize] = true;
                                }
                            }
                        } else if (lo as u32) < 128 {
                            set[lo as usize] = true;
                        }
                    }
                }
            }
            if negated {
                // Negate over printable ASCII; generated text stays tame.
                let mut neg = [false; 128];
                for code in 0x20..=0x7E {
                    neg[code] = !set[code];
                }
                set = neg;
            }
            Ok(set)
        }

        fn parse_class_char(&mut self) -> Result<char, Error> {
            match self.bump() {
                Some('\\') => match self.bump() {
                    Some('n') => Ok('\n'),
                    Some('t') => Ok('\t'),
                    Some(c) => Ok(c),
                    None => Err(Error("dangling escape in class".into())),
                },
                Some(c) => Ok(c),
                None => Err(Error("unterminated character class".into())),
            }
        }
    }

    fn set_to_chars(set: &[bool; 128]) -> Vec<char> {
        set.iter()
            .enumerate()
            .filter(|(_, &allowed)| allowed)
            .map(|(code, _)| char::from(code as u8))
            .collect()
    }
}

/// The glob-import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declare property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a test that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr);) => {};
    (($config:expr);
     $(#[$attr:meta])*
     fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config = $config;
            let mut runner_rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < config.cases {
                attempts += 1;
                if attempts > config.cases.saturating_mul(20).max(1_000) {
                    panic!(
                        "proptest: too many rejected cases in {} ({} accepted of {} wanted)",
                        stringify!($name), accepted, config.cases
                    );
                }
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut runner_rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || { { $body } ::std::result::Result::Ok(()) })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest property {} failed at case {}: {}",
                            stringify!($name), accepted, msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { ($config); $($rest)* }
    };
}

/// Assert a condition inside a property; failure reports the generated
/// inputs' offending expression instead of unwinding through the runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "{}", concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(::std::format!($($fmt)+)),
            );
        }
    };
}

/// Assert two expressions are equal (requires `Debug` on both sides).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left_val = &$left;
        let right_val = &$right;
        if !(*left_val == *right_val) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!(
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    left_val,
                    right_val
                ),
            ));
        }
    }};
}

/// Assert two expressions differ (requires `Debug` on both sides).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left_val = &$left;
        let right_val = &$right;
        if *left_val == *right_val {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!(
                    "assertion failed: {} != {}\n  both: {:?}",
                    stringify!($left),
                    stringify!($right),
                    left_val
                ),
            ));
        }
    }};
}

/// Discard the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
}

/// Choose uniformly among alternative strategies for the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_test("ranges_stay_in_bounds");
        for _ in 0..500 {
            let v = Strategy::generate(&(10u32..20), &mut rng);
            assert!((10..20).contains(&v));
            let f = Strategy::generate(&(-2.0f64..3.0), &mut rng);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn regex_subset_generates_matching_strings() {
        let mut rng = TestRng::for_test("regex_subset");
        let label = crate::string::string_regex("[a-z0-9]([a-z0-9-]{0,13}[a-z0-9])?").unwrap();
        for _ in 0..300 {
            let s = Strategy::generate(&label, &mut rng);
            assert!(!s.is_empty() && s.len() <= 15, "{s:?}");
            assert!(
                s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{s:?}"
            );
            assert!(!s.starts_with('-') && !s.ends_with('-'), "{s:?}");
        }
    }

    #[test]
    fn class_intersection_excludes_right_negation() {
        let mut rng = TestRng::for_test("intersection");
        let s = crate::string::string_regex("[!-~&&[^ ]]{0,40}").unwrap();
        for _ in 0..200 {
            let v = Strategy::generate(&s, &mut rng);
            assert!(v.len() <= 40);
            assert!(v.chars().all(|c| ('!'..='~').contains(&c)), "{v:?}");
        }
    }

    #[test]
    fn collection_vec_respects_size() {
        let mut rng = TestRng::for_test("vec_sizes");
        let strat = crate::collection::vec(any::<u8>(), 2..5);
        for _ in 0..200 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!((2..5).contains(&v.len()));
        }
        let exact = crate::collection::vec(any::<u8>(), 9);
        assert_eq!(Strategy::generate(&exact, &mut rng).len(), 9);
    }

    /// The first values a fixed test name draws, as literals: every
    /// property test's generated cases descend from this stream.
    #[test]
    fn pinned_stream() {
        let mut rng = TestRng::for_test("pinned_stream");
        assert_eq!(
            Strategy::generate(&any::<u64>(), &mut rng),
            0xddf2_25c3_3efa_54b4
        );
        assert_eq!(Strategy::generate(&(0u8..200), &mut rng), 51);
        assert_eq!(Strategy::generate(&(-5i32..5), &mut rng), 1);
        let bytes = crate::collection::vec(any::<u8>(), 0..8);
        assert_eq!(Strategy::generate(&bytes, &mut rng), vec![123, 187]);
        assert_eq!(
            Strategy::generate(&"[a-z][a-z0-9-]{0,6}", &mut rng),
            "x55aw"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro machinery itself: patterns, assume, assert.
        #[test]
        fn macro_roundtrip(a in 0u64..1_000, b in any::<u16>(), s in "[a-z]{1,4}") {
            prop_assume!(b != 0);
            prop_assert!(a < 1_000);
            prop_assert_eq!(s.len(), s.chars().count());
            prop_assert_ne!(s.len(), 0);
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![
            (0u32..10).prop_map(|x| x as u64),
            any::<u16>().prop_map(u64::from),
        ]) {
            prop_assert!(v <= u64::from(u16::MAX));
        }
    }
}
