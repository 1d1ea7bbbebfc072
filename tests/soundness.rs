//! Soundness of accepted bounds: programs accepted by the resource-aware
//! checker never exceed their declared potential when executed with the
//! matching cost metric (the paper's Theorems 1–3, tested empirically).

use std::time::Duration;

use proptest::test_runner::TestRng;
use resyn::eval::components::register_natives;
use resyn::eval::measure::instrument;
use resyn::eval::suite;
use resyn::lang::{Expr, Interp};
use resyn::synth::{Mode, Synthesizer};

#[test]
fn synthesized_insert_respects_its_declared_bound() {
    let bench = suite::table1()
        .into_iter()
        .find(|b| b.id == "sorted-insert")
        .unwrap();
    let out =
        Synthesizer::with_timeout(Duration::from_secs(180)).synthesize(&bench.goal, Mode::ReSyn);
    // `sorted-insert` solves in about a second in release; a miss here is a
    // failure, not a reason to skip the empirical check.
    let program = out
        .program
        .expect("goal `insert` (sorted-insert) must synthesize within the 180 s budget");
    eprintln!("synthesized insert:\n{program}");
    let instrumented = instrument(&program, "insert");

    let mut interp = Interp::new();
    let bindings = register_natives(&mut interp);
    let env = resyn::lang::interp::Env::from_bindings(bindings);

    let mut rng = TestRng::from_seed(0x5e51);
    for _ in 0..25 {
        let n = rng.below(12) as usize;
        let mut xs: Vec<i64> = (0..n).map(|_| rng.int_in(-20, 20)).collect();
        xs.sort();
        xs.dedup();
        let x = rng.int_in(-20, 20);
        let call = Expr::app2(
            instrumented.clone(),
            Expr::int(x),
            list_expr("ICons", "INil", &xs),
        );
        let outcome = interp.run(&call, &env).expect("insert must run");
        // Declared bound: one unit of potential per element of xs.
        assert!(
            outcome.high_water <= xs.len() as i64,
            "cost {} exceeds declared bound {} for x={x}, xs={xs:?}",
            outcome.high_water,
            xs.len()
        );
        // Functional correctness: the result contains x and all of xs.
        let result = outcome.value.as_int_list().expect("an integer list");
        let mut expected = xs.clone();
        expected.push(x);
        expected.sort();
        let mut sorted = result.clone();
        sorted.sort();
        assert_eq!(sorted, expected);
    }
}

fn list_expr(cons: &str, nil: &str, xs: &[i64]) -> Expr {
    let mut e = Expr::ctor(nil, vec![]);
    for x in xs.iter().rev() {
        e = Expr::ctor(cons, vec![Expr::int(*x), e]);
    }
    e
}
