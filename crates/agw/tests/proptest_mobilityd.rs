//! Property test on mobilityd's pool: the implicit free list (a
//! high-water mark plus the indices released below it) against the
//! materialised one it replaced, over random allocate / release /
//! re-allocate / exhaust histories — same leases, same counts, same wire
//! bytes, and the same pool read back.

use magma_agw::IpPool;
use magma_wire::{Imsi, UeIp};
use proptest::prelude::*;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// The pool as it was: every free index of the block held in a set.
struct Materialised {
    base: u32,
    size: u32,
    allocated: BTreeMap<Imsi, UeIp>,
    free: BTreeSet<u32>,
}

impl Materialised {
    fn new(base: u32, size: u32) -> Self {
        Materialised {
            base,
            size,
            allocated: BTreeMap::new(),
            free: (0..size).collect(),
        }
    }

    fn allocate(&mut self, imsi: Imsi) -> Option<UeIp> {
        if let Some(ip) = self.allocated.get(&imsi) {
            return Some(*ip);
        }
        let idx = self.free.pop_first()?;
        let ip = UeIp(self.base + idx);
        self.allocated.insert(imsi, ip);
        Some(ip)
    }

    fn release(&mut self, imsi: Imsi) {
        if let Some(ip) = self.allocated.remove(&imsi) {
            self.free.insert(ip.0 - self.base);
        }
    }

    /// What it serialised as: the block and its leases.
    fn json(&self) -> String {
        leases_json(self.base, self.size, self.allocated.clone())
    }
}

/// The wire shape of a pool, fields in the order they are written.
#[derive(Serialize)]
struct Leases {
    allocated: BTreeMap<Imsi, UeIp>,
    base: u32,
    size: u32,
}

fn leases_json(base: u32, size: u32, allocated: BTreeMap<Imsi, UeIp>) -> String {
    serde_json::to_string(&Leases {
        allocated,
        base,
        size,
    })
    .unwrap()
}

fn imsi(n: u64) -> Imsi {
    Imsi::new(310, 26, n)
}

#[derive(Debug, Clone)]
enum Op {
    Allocate(u64),
    Release(u64),
    /// Allocate new IMSIs until the pool refuses one.
    Exhaust,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..50).prop_map(Op::Allocate),
        (1u64..50).prop_map(Op::Allocate),
        (1u64..50).prop_map(Op::Release),
        (1u64..50).prop_map(Op::Release),
        Just(Op::Exhaust),
    ]
}

proptest! {
    #[test]
    fn implicit_free_list_behaves_as_the_materialised_one(
        base in 1u32..1_000_000,
        size in 1u32..40,
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        let mut pool = IpPool::new(base, size);
        let mut reference = Materialised::new(base, size);
        let mut fresh = 1_000;
        for op in &ops {
            match *op {
                Op::Allocate(n) => {
                    prop_assert_eq!(pool.allocate(imsi(n)), reference.allocate(imsi(n)));
                }
                Op::Release(n) => {
                    pool.release(imsi(n));
                    reference.release(imsi(n));
                }
                Op::Exhaust => loop {
                    fresh += 1;
                    let lease = pool.allocate(imsi(fresh));
                    prop_assert_eq!(lease, reference.allocate(imsi(fresh)));
                    if lease.is_none() {
                        break;
                    }
                },
            }
            prop_assert_eq!(pool.available(), reference.free.len());
            prop_assert_eq!(pool.in_use(), reference.allocated.len());

            // The same bytes on the wire, read back as the same pool that
            // hands out the same next address.
            let mut text = String::new();
            pool.write_json(&mut text);
            prop_assert_eq!(&text, &reference.json());
            let mut back: IpPool = serde_json::from_str(&text).unwrap();
            prop_assert_eq!(&back, &pool);
            prop_assert_eq!(back.available(), pool.available());
            let next = pool.clone().allocate(imsi(999));
            prop_assert_eq!(back.allocate(imsi(999)), next);
        }
    }

    /// Leases that cannot be this block's are refused, whatever the block:
    /// below it, past it, one address held twice, or a block no gateway
    /// could own (too large, or running past the last address).
    #[test]
    fn leases_outside_the_block_or_held_twice_are_refused(
        base in 1u32..1_000_000,
        size in 1u32..40,
        k in 0u32..40,
    ) {
        let k = k % size;
        let one = |ip| [(imsi(1), UeIp(ip))].into();
        let inside = leases_json(base, size, one(base + k));
        prop_assert!(serde_json::from_str::<IpPool>(&inside).is_ok(), "{}", inside);
        for bad in [
            leases_json(base, size, one(base - 1)),
            leases_json(base, size, one(base + size)),
            leases_json(base, size, [(imsi(1), UeIp(base + k)), (imsi(2), UeIp(base + k))].into()),
            leases_json(0, u32::MAX, BTreeMap::new()),
            leases_json(u32::MAX - k, size + 1, BTreeMap::new()),
        ] {
            prop_assert!(serde_json::from_str::<IpPool>(&bad).is_err(), "{}", bad);
        }
    }
}
