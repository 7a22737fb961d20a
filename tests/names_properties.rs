//! Property tests for interned names and the field vector:
//!
//! - random operation sequences on [`Fields`] agree with a
//!   `BTreeMap<String, u64>` model on every `get`, `len`, iteration
//!   order, equality, `clone` and `Debug` string, whether looked up by
//!   string or by interned [`Name`]; keys include well-known names, names
//!   never interned before, the empty name and non-ASCII names;
//! - `Name`'s order is string order, and equality is string equality;
//! - threads interning the same names concurrently all get the same
//!   pointers.

use flexnet_types::{Fields, Name};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use std::collections::BTreeMap;
use std::sync::Barrier;

/// Fixed keys: well-known names, fresh ones, the empty name and
/// non-ASCII ones. A pool index past the end picks a random short name.
const POOL: &[&str] = &[
    "src",
    "ttl",
    "hops",
    "dst_node",
    "",
    "zz_tenant",
    "mark",
    "ünïcode",
    "网",
    "a.b",
    "Z",
];

/// One operation on the map under test: `(kind, pool index, random
/// name, value, look up by Name rather than by string)`.
type Op = (u8, usize, String, u64, bool);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..6,
            0usize..POOL.len() + 2,
            "[a-cé]{0,3}",
            0u64..1000,
            0u8..2,
        )
            .prop_map(|(kind, idx, rand, v, by_name)| (kind, idx, rand, v, by_name == 1)),
        0..48,
    )
}

fn check_same(fields: &Fields, model: &BTreeMap<String, u64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(fields.len(), model.len());
    prop_assert_eq!(fields.is_empty(), model.is_empty());
    let got: Vec<(String, u64)> = fields.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    let want: Vec<(String, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(format!("{fields:?}"), format!("{model:?}"));
    for key in POOL.iter().copied().chain(model.keys().map(String::as_str)) {
        prop_assert_eq!(fields.get(key), model.get(key));
        prop_assert_eq!(fields.get(Name::new(key)), model.get(key));
        prop_assert_eq!(fields.contains_key(key), model.contains_key(key));
    }
    let rebuilt: Fields = model.iter().map(|(k, v)| (k, *v)).collect();
    prop_assert_eq!(&rebuilt, fields);
    prop_assert_eq!(&fields.clone(), fields);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fields_agree_with_a_btreemap_model(ops in arb_ops()) {
        let mut fields = Fields::new();
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        for (kind, idx, rand, v, by_name) in ops {
            let key: &str = POOL.get(idx).copied().unwrap_or(&rand);
            let name = Name::new(key);
            match kind {
                0 | 1 => {
                    let old = if by_name { fields.insert(name, v) } else { fields.insert(key, v) };
                    prop_assert_eq!(old, model.insert(key.to_string(), v));
                }
                2 => {
                    let old = if by_name { fields.remove(name) } else { fields.remove(key) };
                    prop_assert_eq!(old, model.remove(key));
                }
                3 => {
                    let got = if by_name { fields.get_mut(name) } else { fields.get_mut(key) };
                    match (got, model.get_mut(key)) {
                        (Some(a), Some(b)) => {
                            *a += v;
                            *b += v;
                        }
                        (None, None) => {}
                        (a, b) => prop_assert!(false, "get_mut({key:?}): {a:?} vs {b:?}"),
                    }
                }
                4 => {
                    prop_assert_eq!(fields.get(key), model.get(key));
                }
                _ => {
                    if v % 8 == 0 {
                        fields.clear();
                        model.clear();
                    }
                }
            }
            check_same(&fields, &model)?;
        }
    }

    #[test]
    fn name_order_and_equality_are_string_order_and_equality(
        a in "[a-cé]{0,4}",
        b in "[a-cé]{0,4}",
        pick in 0usize..POOL.len(),
    ) {
        for (x, y) in [(a.as_str(), b.as_str()), (a.as_str(), POOL[pick]), (POOL[pick], b.as_str())] {
            let (nx, ny) = (Name::new(x), Name::new(y));
            prop_assert_eq!(nx.cmp(&ny), x.cmp(y));
            prop_assert_eq!(nx == ny, x == y);
            prop_assert_eq!(nx.as_str(), x);
            prop_assert_eq!(format!("{nx:?}"), format!("{x:?}"));
        }
    }
}

#[test]
fn concurrent_interning_yields_one_pointer_per_name() {
    const THREADS: usize = 8;
    const NAMES: usize = 1000;
    let strings: Vec<String> = (0..NAMES).map(|i| format!("concurrent_{i}_名")).collect();
    let start = Barrier::new(THREADS);
    let per_thread: Vec<Vec<Name>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (strings, start) = (&strings, &start);
                s.spawn(move || {
                    // All threads start together, each walking the names
                    // from a different offset, so first interning races
                    // happen all over the table.
                    start.wait();
                    (0..NAMES)
                        .map(|i| (i + t * NAMES / THREADS) % NAMES)
                        .map(|i| (i, Name::new(&strings[i])))
                        .fold(vec![None; NAMES], |mut acc, (i, n)| {
                            acc[i] = Some(n);
                            acc
                        })
                        .into_iter()
                        .map(|n| n.expect("every name interned"))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });
    for names in &per_thread[1..] {
        for (a, b) in per_thread[0].iter().zip(names) {
            assert_eq!(a, b);
            assert!(std::ptr::eq(a.as_str(), b.as_str()));
        }
    }
    for (n, s) in per_thread[0].iter().zip(&strings) {
        assert_eq!(n.as_str(), s);
    }
}
