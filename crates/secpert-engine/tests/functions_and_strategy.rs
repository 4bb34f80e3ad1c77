//! Tests for `deffunction` and conflict-resolution strategies.

use secpert_engine::{Engine, Strategy, Value};

#[test]
fn deffunction_basic_and_recursive() {
    let mut engine = Engine::new();
    engine
        .load_str(
            r"
            (deffunction square (?x) (* ?x ?x))
            (deffunction fact (?n)
              (if (<= ?n 1) then 1 else (* ?n (fact (- ?n 1)))))
            ",
        )
        .unwrap();
    // Call through a rule RHS.
    engine
        .load_str(
            r"
            (deftemplate in (slot n))
            (deftemplate out (slot v))
            (defrule compute
              ?i <- (in (n ?n))
              =>
              (retract ?i)
              (assert (out (v (+ (square ?n) (fact 4))))))
            ",
        )
        .unwrap();
    engine.assert_str("(in (n 5))").unwrap();
    engine.run(None).unwrap();
    let out = engine.facts_of("out");
    assert_eq!(out[0].1.get("v").unwrap(), &Value::Int(25 + 24));
}

#[test]
fn deffunction_wildcard_collects_rest() {
    let mut engine = Engine::new();
    engine
        .load_str(
            r"
            (deffunction count-args (?first $?rest)
              (+ 1 (length$ ?rest)))
            (deftemplate probe (slot n))
            (defrule p
              (probe)
              =>
              (printout t (count-args a b c d)))
            ",
        )
        .unwrap();
    engine.assert_str("(probe (n 1))").unwrap();
    engine.run(None).unwrap();
    assert_eq!(engine.take_output(), "4");
}

#[test]
fn deffunction_usable_in_pattern_predicates() {
    let mut engine = Engine::new();
    engine
        .load_str(
            r"
            (deffunction big (?x) (> ?x 100))
            (deftemplate ev (slot n))
            (defrule only_big
              (ev (n ?n&:(big ?n)))
              =>
              (printout t ?n))
            ",
        )
        .unwrap();
    engine.assert_str("(ev (n 50))").unwrap();
    engine.assert_str("(ev (n 500))").unwrap();
    assert_eq!(engine.run(None).unwrap(), 1);
    assert_eq!(engine.take_output(), "500");
}

#[test]
fn deffunction_arity_checked() {
    let mut engine = Engine::new();
    engine.load_str("(deffunction two (?a ?b) (+ ?a ?b))").unwrap();
    engine.load_str("(deftemplate t (slot x)) (defrule r (t) => (printout t (two 1)))").unwrap();
    engine.assert_str("(t (x 1))").unwrap();
    assert!(engine.run(None).is_err(), "missing argument must error");
}

#[test]
fn strategy_depth_vs_breadth() {
    for (strategy, expected) in [(Strategy::Depth, "cba"), (Strategy::Breadth, "abc")] {
        let mut engine = Engine::new();
        engine
            .load_str(
                r"
                (deftemplate item (slot tag))
                (defrule show
                  (item (tag ?t))
                  =>
                  (printout t ?t))
                ",
            )
            .unwrap();
        engine.set_strategy(strategy);
        for tag in ["a", "b", "c"] {
            engine.assert_str(&format!("(item (tag {tag}))")).unwrap();
        }
        engine.run(None).unwrap();
        assert_eq!(engine.take_output(), expected, "{strategy:?}");
    }
}

#[test]
fn duplicate_deffunction_rejected() {
    let mut engine = Engine::new();
    engine.load_str("(deffunction f (?x) ?x)").unwrap();
    assert!(engine.load_str("(deffunction f (?x) (* ?x 2))").is_err());
}

#[test]
fn agenda_snapshot_orders_like_firing() {
    let mut engine = Engine::new();
    engine
        .load_str(
            r"
            (deftemplate item (slot tag))
            (defrule urgent (declare (salience 5)) (item (tag u)) => (printout t u))
            (defrule show (item (tag ?t)) => (printout t ?t))
            ",
        )
        .unwrap();
    engine.assert_str("(item (tag a))").unwrap();
    engine.assert_str("(item (tag u))").unwrap();
    let agenda = engine.agenda();
    assert_eq!(agenda.len(), 3, "{agenda:?}");
    assert_eq!(agenda[0].0, "urgent", "salience first");
    assert_eq!(agenda[0].1.len(), 1);
    // Firing consumes in the same order the snapshot promised.
    let first_rule = agenda[0].0.clone();
    engine.run(Some(1)).unwrap();
    assert_eq!(engine.firings()[0].rule.as_ref(), first_rule);
}
