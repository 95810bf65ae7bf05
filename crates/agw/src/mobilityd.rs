//! mobilityd — UE IP address management.
//!
//! Each AGW owns a disjoint IP block (configuration state from the
//! orchestrator); allocation itself is runtime state local to the AGW
//! (§3.2), which is why attach works headless.

use magma_wire::{Imsi, UeIp};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Allocation pool for one AGW. The free list is implicit: every index
/// from `next` up, plus the `released` ones below it, so the pool costs
/// what its leases do, not what its block does (it is cloned into the
/// checkpoint every second).
#[derive(Debug, Clone)]
pub struct IpPool {
    base: u32,
    size: u32,
    allocated: BTreeMap<Imsi, UeIp>,
    /// High-water mark: no index at or above it was ever leased.
    next: u32,
    /// Indices below `next` that are free again.
    released: BTreeSet<u32>,
}

/// Two pools are equal when they hold the same block and leases: the free
/// list is the rest of the block however it is represented.
impl PartialEq for IpPool {
    fn eq(&self, other: &Self) -> bool {
        (self.base, self.size) == (other.base, other.size) && self.allocated == other.allocated
    }
}

/// Largest block a received pool may claim (a /12; gateways own a /16).
const MAX_POOL_SIZE: u32 = 1 << 20;

/// What an [`IpPool`] serialises as (written by hand below, read through
/// this): the block and its leases. The free list is the rest of the
/// block, so it is rebuilt on read, not shipped.
#[derive(Deserialize)]
struct Leases {
    base: u32,
    size: u32,
    allocated: BTreeMap<Imsi, UeIp>,
}

impl Serialize for IpPool {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"allocated\":");
        self.allocated.write_json(out);
        out.push_str(",\"base\":");
        self.base.write_json(out);
        out.push_str(",\"size\":");
        self.size.write_json(out);
        out.push('}');
    }
}

impl Deserialize for IpPool {
    fn from_json(v: serde::Value) -> Result<Self, serde::Error> {
        Leases::from_json(v)?.try_into()
    }
}

impl TryFrom<Leases> for IpPool {
    type Error = serde::Error;

    /// Received leases must lie inside the block, one address each, and
    /// the block must be one a gateway could own, inside the address
    /// space: the free indices below the highest lease are built index by
    /// index, so the block's size is bounded before they are.
    fn try_from(l: Leases) -> Result<Self, serde::Error> {
        if l.size > MAX_POOL_SIZE || l.base.checked_add(l.size).is_none() {
            return Err(serde::Error::msg(format!("pool of {} addresses at {}", l.size, l.base)));
        }
        let mut held = BTreeSet::new();
        for ip in l.allocated.values() {
            let leased = ip.0.checked_sub(l.base).filter(|&idx| idx < l.size);
            if !leased.is_some_and(|idx| held.insert(idx)) {
                return Err(serde::Error::msg(format!(
                    "lease {} outside the pool or held twice",
                    ip.0
                )));
            }
        }
        let next = held.last().map_or(0, |&idx| idx + 1);
        Ok(IpPool {
            base: l.base,
            size: l.size,
            allocated: l.allocated,
            next,
            released: (0..next).filter(|idx| !held.contains(idx)).collect(),
        })
    }
}

impl IpPool {
    /// `base` is the first address (host order), e.g. `0x0A_00_00_02` for
    /// 10.0.0.2.
    pub fn new(base: u32, size: u32) -> Self {
        IpPool {
            base,
            size,
            allocated: BTreeMap::new(),
            next: 0,
            released: BTreeSet::new(),
        }
    }

    /// Allocate (or return the existing lease for) `imsi`: the lowest free
    /// address.
    pub fn allocate(&mut self, imsi: Imsi) -> Option<UeIp> {
        if let Some(ip) = self.allocated.get(&imsi) {
            return Some(*ip);
        }
        let idx = match self.released.pop_first() {
            Some(idx) => idx,
            None if self.next < self.size => {
                self.next += 1;
                self.next - 1
            }
            None => return None,
        };
        let ip = UeIp(self.base + idx);
        self.allocated.insert(imsi, ip);
        Some(ip)
    }

    pub fn release(&mut self, imsi: Imsi) {
        if let Some(ip) = self.allocated.remove(&imsi) {
            self.released.insert(ip.0 - self.base);
        }
    }

    pub fn lookup(&self, imsi: Imsi) -> Option<UeIp> {
        self.allocated.get(&imsi).copied()
    }

    pub fn in_use(&self) -> usize {
        self.allocated.len()
    }

    pub fn available(&self) -> usize {
        self.released.len() + (self.size - self.next) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imsi(n: u64) -> Imsi {
        Imsi::new(310, 26, n)
    }

    #[test]
    fn allocate_is_stable_per_imsi() {
        let mut p = IpPool::new(0x0A000002, 10);
        let a = p.allocate(imsi(1)).unwrap();
        let b = p.allocate(imsi(1)).unwrap();
        assert_eq!(a, b, "same IMSI keeps its lease");
        assert_eq!(p.in_use(), 1);
    }

    #[test]
    fn pool_exhaustion_and_release() {
        let mut p = IpPool::new(100, 2);
        assert!(p.allocate(imsi(1)).is_some());
        assert!(p.allocate(imsi(2)).is_some());
        assert!(p.allocate(imsi(3)).is_none(), "pool exhausted");
        p.release(imsi(1));
        let ip = p.allocate(imsi(3)).unwrap();
        assert_eq!(ip, UeIp(100), "lowest freed address reused");
    }

    #[test]
    fn distinct_imsis_distinct_ips() {
        let mut p = IpPool::new(0, 100);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..100 {
            assert!(seen.insert(p.allocate(imsi(i)).unwrap()));
        }
    }

    #[test]
    fn serialises_leases_only_and_rebuilds_the_free_list() {
        let mut p = IpPool::new(100, 5);
        for i in 1..=3 {
            p.allocate(imsi(i));
        }
        p.release(imsi(2));
        let text = serde_json::to_string(&p).unwrap();
        assert_eq!(
            text,
            format!(
                r#"{{"allocated":{{"{}":100,"{}":102}},"base":100,"size":5}}"#,
                imsi(1).0,
                imsi(3).0
            )
        );
        assert_eq!(serde_json::from_str::<IpPool>(&text).unwrap(), p);

        // Leases that cannot be this pool's are refused, not trusted.
        for bad in [
            r#"{"allocated":{"1":99},"base":100,"size":5}"#,
            r#"{"allocated":{"1":105},"base":100,"size":5}"#,
            r#"{"allocated":{"1":101,"2":101},"base":100,"size":5}"#,
            r#"{"allocated":{},"base":0,"size":4294967295}"#,
        ] {
            assert!(serde_json::from_str::<IpPool>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn release_unknown_is_noop() {
        let mut p = IpPool::new(0, 2);
        p.release(imsi(9));
        assert_eq!(p.available(), 2);
    }
}
