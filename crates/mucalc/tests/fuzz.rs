//! Adversarial-input fuzzing for the equation-system parser: whatever
//! bytes arrive, `parse_system` must return `Ok` or a structured
//! [`ParseError`] — never panic, never overflow the stack.
//!
//! Three input distributions, each probing a different failure class:
//! raw bytes (lexer robustness), token soup drawn from the grammar's own
//! vocabulary (parser state machine, much deeper reach than noise), and
//! mutations of a system `getafix emit-mu` prints (near-miss inputs, the
//! shape a truncated or hand-edited file actually has). The tests only
//! parse: solving is out of scope here.

use getafix_mucalc::{parse_system, ParseError};
use proptest::prelude::*;

fn parse(src: &str) -> Result<(), ParseError> {
    parse_system(src).map(|_| ())
}

/// `getafix emit-mu examples/double_lock.bp --algo ef-opt`: the mutation
/// seed, and every construct the algorithms emit.
const SEED: &str = r#"
type PC = range 15;
type Local = bits 1;
type Global = bits 1;
type Conf = struct { pc: PC, cl: Local, cg: Global, ecl: Local, ecg: Global };
type Fr = range 2;

input Init(s: Conf);
input EntryOf(p: PC);
input ExitOf(p: PC);
input Target(p: PC);
input ProgramInt(from: PC, to: PC, l: Local, l2: Local, g: Global, g2: Global);
input ProgramCall(call: PC, entry: PC, cl: Local, el: Local, g: Global);
input SkipCall(call: PC, ret: PC);
input ProcEntry(p: PC, e: PC);
input SetReturn1(call: PC, lcall: Local, lret: Local);
input SetReturn2(call: PC, exit: PC, ucl: Local, scl: Local, ucg: Global, scg: Global);
mu SummaryEFopt(fr: Fr, s: Conf) :=
  ((fr = 1 & Init(s))
    | SummaryEFopt(1, s)
    | (fr = 1 & (New1(s)
      | New2(s))));

mu Relevant(p: PC) :=
  (exists s: Conf. (SummaryEFopt(1, s) & !(SummaryEFopt(0, s)) & s.pc = p));

mu New1(s: Conf) :=
  ((SummaryEFopt(1, s) & Relevant(s.pc))
    | (exists t: Conf. (New1(t) & t.ecl = s.ecl & t.ecg = s.ecg & ProgramInt(t.pc, s.pc, t.cl, s.cl, t.cg, s.cg))));

mu New2(s: Conf) :=
  ((EntryOf(s.pc) & s.ecl = s.cl & s.ecg = s.cg & (exists t: Conf. (SummaryEFopt(1, t) & t.cg = s.cg & ProgramCall(t.pc, s.pc, t.cl, s.cl, s.cg) & Relevant(t.pc))))
    | (exists tpc: PC, tcg: Global, uecl: Local. ((exists t: Conf. (SummaryEFopt(1, t) & t.pc = tpc & t.cg = tcg & t.ecl = s.ecl & t.ecg = s.ecg & SkipCall(t.pc, s.pc) & SetReturn1(t.pc, t.cl, s.cl) & (exists epc: PC. ProgramCall(t.pc, epc, t.cl, uecl, t.cg)))) & (exists u: Conf. (SummaryEFopt(1, u) & u.ecl = uecl & u.ecg = tcg & ExitOf(u.pc) & SetReturn2(tpc, u.pc, u.cl, s.cl, u.cg, s.cg) & (Relevant(tpc)
      | Relevant(u.pc)))))));

query reach := (exists s: Conf. (SummaryEFopt(1, s) & Target(s.pc)));
"#;

/// Every terminal the grammar knows, plus a few near-keywords and
/// out-of-range literals; a soup of these reaches parser states that
/// uniform random bytes never hit.
const VOCAB: [&str; 44] = [
    "type",
    "input",
    "mu",
    "query",
    "bool",
    "range",
    "bits",
    "struct",
    "exists",
    "forall",
    "true",
    "false",
    "S",
    "R",
    "x",
    "pc",
    "(",
    ")",
    "{",
    "}",
    ",",
    ":",
    ";",
    ".",
    ":=",
    "=",
    "!=",
    "<",
    "<=",
    "&",
    "|",
    "!",
    "->",
    "<->",
    "-",
    "/*",
    "*/",
    "//",
    "\n",
    "0",
    "1",
    "3",
    "4294967296",
    "18446744073709551616",
];

fn token_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0..VOCAB.len(), 0..64)
        .prop_map(|picks| picks.iter().map(|&i| VOCAB[i]).collect::<Vec<_>>().join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (lossily decoded) never panic the parser.
    #[test]
    fn raw_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    /// Grammar-vocabulary soup never panics the parser.
    #[test]
    fn token_soup_never_panics(src in token_soup()) {
        let _ = parse(&src);
    }

    /// Near-miss inputs: the seed system with arbitrary bytes spliced in
    /// at an arbitrary byte. Must never panic, and syntax errors must
    /// carry a position inside the input.
    #[test]
    fn mutated_system_never_panics(
        cut in 0..SEED.len(),
        splice in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut src = SEED.as_bytes()[..cut].to_vec();
        src.extend_from_slice(&splice);
        src.extend_from_slice(&SEED.as_bytes()[cut..]);
        let src = String::from_utf8_lossy(&src);
        let lines = src.lines().count() + 1;
        if let Err(e) = parse(&src) {
            prop_assert!(
                e.line <= lines,
                "error line {} beyond the {} input lines: {e}", e.line, lines
            );
        }
    }
}

/// The mutation seed itself is a valid system.
#[test]
fn seed_parses() {
    parse(SEED).expect("the emit-mu seed parses");
}

/// Pathological nesting is a structured error that names the bound, not
/// a stack overflow: recursive descent turns input nesting into
/// call-stack depth, so without the parser's depth bound each of these
/// would abort the process instead of returning.
#[test]
fn deep_nesting_is_a_parse_error() {
    const HEADER: &str = "type S = bits 2;\n";
    let n = 100_000;
    let parens = format!("{HEADER}query q := {}true{};", "(".repeat(n), ")".repeat(n));
    let nots = format!("{HEADER}query q := {}true;", "!".repeat(n));
    let binders = format!("{HEADER}query q := {}true;", "exists x: S. ".repeat(n));
    for (what, src) in [("parens", parens), ("nots", nots), ("binders", binders)] {
        let err = parse(&src).expect_err(what);
        assert!(err.message.contains("nesting deeper than 100 levels"), "{what}: {err}");
        assert_eq!(err.line, 2, "{what}: {err}");
        assert!(err.col >= 1, "{what}: {err}");
    }

    // The bound is generous: moderately nested input still parses.
    let shallow = format!("{HEADER}query q := {}true{};", "(".repeat(50), ")".repeat(50));
    parse(&shallow).expect("50 nested parens parse");
}
