//! Layer 1 — the effect solver.
//!
//! Takes the declared [`Effects`] of every kernel and discharges, by
//! case analysis over the symbolic address expressions, the five static
//! invariants (DESIGN.md "Effect system & static invariants"):
//!
//! 1. **Lane-pairwise disjointness** — within a lockstep wave, no two
//!    execution units may issue plain writes with differing values to
//!    one cell, and no plain write may race an atomic
//!    ([`FindingKind::LaneWriteRace`]).
//! 2. **Staged-write discipline** — an immediate plain write must not be
//!    reachable by another lane's same-wave read
//!    ([`FindingKind::UnstagedSameWaveRead`]).
//! 3. **Barrier uniformity** — every barrier site must be dominated by a
//!    block-uniform predicate ([`FindingKind::DivergentBarrier`]).
//! 4. **Probe budgets** — probe loops must declare the bound the table
//!    code enforces ([`FindingKind::ProbeBudgetOverrun`]).
//! 5. **Immediate-write confinement** — immediate semantics stay inside
//!    immediate-class launches, and even there stay lane-disjoint
//!    ([`FindingKind::ImmediateWriteEscape`]).
//!
//! plus region validity ([`FindingKind::RegionOob`]): every index
//! expression must stay inside its region for *all* CSR layouts.
//!
//! # The disjointness oracle
//!
//! The whole analysis bottoms out in one question: can the address sets
//! of two *distinct* execution units `u ≠ u′` intersect? The answer per
//! index-expression pair (see [`overlap_witness`]):
//!
//! * `OwnVertex` × `OwnVertex` — disjoint when the launch guarantees
//!   distinct items (ν-LPA's candidate sets do).
//! * anything × `Neighbor` or `LabelValue` — may overlap: two vertices
//!   can share a neighbour, and a label value is an arbitrary vertex id.
//! * `CsrInterval{s,e}` × `CsrInterval{s,e}` — CSR offsets satisfy
//!   `off(u′) ≥ off(u) + deg(u)` for `u < u′`, so `u`'s interval
//!   `[s·off(u), s·off(u) + e·deg(u))` ends at or before `u′`'s starts
//!   **iff `e ≤ s`** — the same inequality that keeps the interval
//!   inside a region of extent `s·m`. One inequality discharges both
//!   the pairwise-overlap and the out-of-bounds question.
//! * `Dn` `Fixed` × `Fixed` — always the same word: atomic-required.
//!
//! Verdicts are sound for all graphs because they use only the CSR
//! monotonicity invariant, never a concrete layout. The concrete
//! [`AddrMap`] is cross-validated separately ([`verify_layout`]) so the
//! symbolic region model and the addresses the kernels actually charge
//! cannot drift apart.

use crate::report::{CheckReport, Finding, FindingKind, LanePair};
use nulpa_core::AddrMap;
use nulpa_hashtab::MAX_RETRIES;
use nulpa_simt::effects::{
    AccessEffect, AccessKind, AddrExpr, Effects, EffectsRegistry, IndexExpr, KernelFlavor,
    LaneOrder, Pred, ProbeBound, Region, StagingClass, Visibility,
};

/// Verify every registered kernel, returning all findings.
pub fn verify(registry: &EffectsRegistry) -> CheckReport {
    let mut rep = CheckReport::default();
    verify_layout(&mut rep);
    for e in registry.iter() {
        verify_kernel(e, &mut rep);
    }
    rep.kernels_checked = registry.len();
    rep
}

/// Cross-validate the symbolic region model against the concrete
/// [`AddrMap`] layout: every region's range must have exactly the
/// declared symbolic extent, and the regions must tile the address space
/// in declaration order with no gap or overlap. A mismatch means the
/// solver's "different region ⇒ disjoint" axiom is unsound for the
/// shipped layout, so it is reported as a finding rather than trusted.
pub fn verify_layout(rep: &mut CheckReport) {
    for (n, m) in [(0usize, 0usize), (1, 0), (5, 0), (100, 400), (7, 13)] {
        let a = AddrMap::new(n, m);
        let mut next = 0usize;
        for r in Region::GLOBAL {
            let range = a.region_range(r);
            rep.facts_checked += 2;
            if range.start != next || range.len() != r.extent(n, m) {
                rep.push(Finding {
                    kind: FindingKind::RegionOob,
                    kernel: "addr-map".to_string(),
                    addr: format!("{}[{}..{})", r.name(), range.start, range.end),
                    site: "layout cross-validation".to_string(),
                    witness: None,
                    detail: format!(
                        "concrete AddrMap(n={n}, m={m}) disagrees with the symbolic \
                         region model: expected start {next}, extent {}",
                        r.extent(n, m)
                    ),
                });
                return;
            }
            next = range.end;
        }
    }
}

fn verify_kernel(e: &Effects, rep: &mut CheckReport) {
    // Region validity for every declared access.
    for a in &e.accesses {
        rep.facts_checked += 1;
        if let Some(f) = validity_finding(e, a) {
            rep.push(f);
        }
    }

    // Pairwise checks — only meaningful for lockstep launches, where
    // lanes of a wave are unordered. The Sequential order (Cross-Check)
    // makes lane order part of the semantics; its discipline is enforced
    // by the confinement rule instead.
    if e.order == LaneOrder::Lockstep {
        for (i, a) in e.accesses.iter().enumerate() {
            // A write can race *itself* across two lanes, so the pair
            // enumeration includes (i, i).
            for b in e.accesses.iter().skip(i) {
                check_pair(e, a, b, rep);
            }
        }
    }

    // Barrier uniformity.
    for site in &e.barriers {
        rep.facts_checked += 1;
        if e.flavor != KernelFlavor::BlockPerItem {
            rep.push(Finding {
                kind: FindingKind::DivergentBarrier,
                kernel: e.kernel.to_string(),
                addr: format!("barrier `{}`", site.site),
                site: site.site.to_string(),
                witness: None,
                detail: "barrier declared in a thread-per-item kernel — there is no \
                         block to synchronise"
                    .to_string(),
            });
            continue;
        }
        if site.pred == Pred::LaneDivergent {
            rep.push(Finding {
                kind: FindingKind::DivergentBarrier,
                kernel: e.kernel.to_string(),
                addr: format!("barrier `{}`", site.site),
                site: site.site.to_string(),
                witness: Some(LanePair::new(
                    "lane 0 reaches the barrier; lane 1's predicate is false and it \
                     has exited the scope",
                )),
                detail: "barrier dominated by a lane-divergent predicate — undefined \
                         behaviour for __syncthreads() on hardware"
                    .to_string(),
            });
        }
    }

    // Probe budget conformance.
    rep.facts_checked += 1;
    match e.probes {
        ProbeBound::None | ProbeBound::Bounded { .. } if !probes_tables(e) => {
            // No table accesses declared: nothing to bound.
        }
        ProbeBound::None => rep.push(Finding {
            kind: FindingKind::ProbeBudgetOverrun,
            kernel: e.kernel.to_string(),
            addr: "probe loop".to_string(),
            site: "probe bound".to_string(),
            witness: None,
            detail: "kernel accesses hashtable regions but declares no probe bound".to_string(),
        }),
        ProbeBound::Unbounded => rep.push(Finding {
            kind: FindingKind::ProbeBudgetOverrun,
            kernel: e.kernel.to_string(),
            addr: "probe loop".to_string(),
            site: "probe bound".to_string(),
            witness: None,
            detail: "probe loop declared unbounded — Algorithm 2's termination \
                     argument is not established"
                .to_string(),
        }),
        ProbeBound::Bounded {
            budget,
            fallback_linear,
        } => {
            if budget != MAX_RETRIES {
                rep.push(Finding {
                    kind: FindingKind::ProbeBudgetOverrun,
                    kernel: e.kernel.to_string(),
                    addr: "probe loop".to_string(),
                    site: "probe bound".to_string(),
                    witness: None,
                    detail: format!(
                        "declared probe budget {budget} diverges from the enforced \
                         global budget MAX_RETRIES = {MAX_RETRIES} (per-table budget \
                         is min({MAX_RETRIES}, 2·p₁))"
                    ),
                });
            }
            if !fallback_linear {
                rep.push(Finding {
                    kind: FindingKind::ProbeBudgetOverrun,
                    kernel: e.kernel.to_string(),
                    addr: "probe loop".to_string(),
                    site: "probe bound".to_string(),
                    witness: None,
                    detail: "no linear fallback declared: non-linear probe sequences \
                             are not guaranteed to visit every slot, so termination \
                             within the budget is unproven"
                        .to_string(),
                });
            }
        }
    }

    // Immediate-write confinement.
    for a in &e.accesses {
        let AccessKind::Write {
            vis: Visibility::Immediate,
            ..
        } = a.kind
        else {
            continue;
        };
        rep.facts_checked += 1;
        match e.staging {
            StagingClass::Staged => {
                // Immediate plain writes in a staged-class kernel are
                // only legal to lane-private scratch (the CSR-carved
                // table regions and shared memory) — never to the
                // shared algorithm state.
                if a.addr.region.is_shared_state() {
                    rep.push(Finding {
                        kind: FindingKind::ImmediateWriteEscape,
                        kernel: e.kernel.to_string(),
                        addr: a.addr.render(),
                        site: a.site.to_string(),
                        witness: None,
                        detail: format!(
                            "staged-class kernel writes shared state region `{}` \
                             immediately — same-wave lanes would observe it before \
                             the wave boundary",
                            a.addr.region.name()
                        ),
                    });
                }
            }
            StagingClass::Immediate => {
                // Immediate-class kernels (Cross-Check) may write
                // through, but each immediate plain write must still be
                // lane-disjoint — otherwise its effect leaks across
                // lanes *within* the launch.
                if let Some(w) = overlap_witness(&a.addr, &a.addr, e.distinct_items) {
                    rep.push(Finding {
                        kind: FindingKind::ImmediateWriteEscape,
                        kernel: e.kernel.to_string(),
                        addr: a.addr.render(),
                        site: a.site.to_string(),
                        witness: Some(w),
                        detail: "immediate-class kernel's plain write is not confined \
                                 to lane-disjoint cells — use an atomic or stage it"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// Does the kernel declare any access to the hashtable regions?
fn probes_tables(e: &Effects) -> bool {
    e.accesses
        .iter()
        .any(|a| matches!(a.addr.region, Region::Keys | Region::Values))
        && e.accesses.iter().any(|a| {
            matches!(a.addr.region, Region::Keys | Region::Values)
                && !matches!(a.kind, AccessKind::Read)
        })
}

fn check_pair(e: &Effects, a: &AccessEffect, b: &AccessEffect, rep: &mut CheckReport) {
    rep.facts_checked += 1;
    let (wa, wb) = (plain_write(a), plain_write(b));

    // Write–write: two plain writes with possibly-differing values.
    // Idempotent pairs are exempt: every writer stores a constant and the
    // wave flush commits constants in a fixed site order (sets before
    // clears), so the outcome is lane-order independent.
    if let (Some((_, ia)), Some((_, ib))) = (wa, wb) {
        if !(ia && ib) {
            if let Some(w) = overlap_witness(&a.addr, &b.addr, e.distinct_items) {
                rep.push(pair_finding(
                    FindingKind::LaneWriteRace,
                    e,
                    a,
                    b,
                    w,
                    "two lanes may issue plain writes with differing values to one \
                     cell in the same wave — atomic-required",
                ));
                return;
            }
        }
    }

    // Mixed atomic/plain: an atomic takes effect immediately, a plain
    // write at its own time (immediate) or the flush (staged) — if the
    // cells can coincide across lanes the final value depends on
    // scheduling.
    let mixed = matches!(
        (&a.kind, &b.kind),
        (AccessKind::Atomic, AccessKind::Write { .. })
            | (AccessKind::Write { .. }, AccessKind::Atomic)
    );
    if mixed {
        if let Some(w) = overlap_witness(&a.addr, &b.addr, e.distinct_items) {
            rep.push(pair_finding(
                FindingKind::LaneWriteRace,
                e,
                a,
                b,
                w,
                "atomic and plain write may target one cell across lanes — the final \
                 value depends on wave scheduling",
            ));
            return;
        }
    }

    // Write–read: an *immediate* plain write observable by another
    // lane's read in the same wave. Staged writes are exempt — reads see
    // wave-start state by construction; atomics are the sanctioned
    // immediate mechanism (covered by the mixed rule above).
    let wr = |w: &AccessEffect, r: &AccessEffect| -> bool {
        matches!(
            w.kind,
            AccessKind::Write {
                vis: Visibility::Immediate,
                ..
            }
        ) && matches!(r.kind, AccessKind::Read)
    };
    for (w, r) in [(a, b), (b, a)] {
        if wr(w, r) {
            if let Some(wit) = overlap_witness(&w.addr, &r.addr, e.distinct_items) {
                rep.push(pair_finding(
                    FindingKind::UnstagedSameWaveRead,
                    e,
                    w,
                    r,
                    wit,
                    "immediate write reachable by a same-wave read of another lane \
                     with no intervening flush/wave boundary",
                ));
                return;
            }
        }
    }
}

fn pair_finding(
    kind: FindingKind,
    e: &Effects,
    a: &AccessEffect,
    b: &AccessEffect,
    witness: LanePair,
    detail: &str,
) -> Finding {
    let addr = if a.addr == b.addr {
        a.addr.render()
    } else {
        format!("{} ∩ {}", a.addr.render(), b.addr.render())
    };
    let site = if std::ptr::eq(a, b) || a.site == b.site {
        a.site.to_string()
    } else {
        format!("{} ↔ {}", a.site, b.site)
    };
    Finding {
        kind,
        kernel: e.kernel.to_string(),
        addr,
        site,
        witness: Some(witness),
        detail: detail.to_string(),
    }
}

fn plain_write(a: &AccessEffect) -> Option<(Visibility, bool)> {
    match a.kind {
        AccessKind::Write { vis, idempotent } => Some((vis, idempotent)),
        _ => None,
    }
}

/// Region/index validity: each expression must stay inside its region
/// for every CSR layout.
fn validity_finding(e: &Effects, a: &AccessEffect) -> Option<Finding> {
    let mk = |detail: String, witness: Option<LanePair>| Finding {
        kind: FindingKind::RegionOob,
        kernel: e.kernel.to_string(),
        addr: a.addr.render(),
        site: a.site.to_string(),
        witness,
        detail,
    };
    let vertex_indexed = matches!(
        a.addr.index,
        IndexExpr::OwnVertex | IndexExpr::Neighbor | IndexExpr::LabelValue
    );
    match a.addr.region {
        // Shared memory is private to its execution unit; any shape is
        // in-bounds by construction (the device model sizes it).
        Region::Shared => None,
        Region::Dn => (a.addr.index != IndexExpr::Fixed).then(|| {
            mk(
                "the dn region is a single dedicated word; only a fixed index is valid".into(),
                None,
            )
        }),
        Region::Labels | Region::Processed => {
            if vertex_indexed {
                None
            } else {
                Some(mk(
                    "vertex-indexed region addressed with a non-vertex expression".into(),
                    None,
                ))
            }
        }
        Region::Targets | Region::Weights => interval_finding(a, 1, mk),
        Region::Keys | Region::Values => interval_finding(a, 2, mk),
    }
}

/// A CSR interval is valid in an `s·m`-extent region iff its start scale
/// is exactly `s` and its extent scale is at most `s`: the region holds
/// `s` words per edge, vertex `v`'s carve starts at `s·off(v)`, and the
/// next carve starts at `s·off(v′) ≥ s·(off(v) + deg(v))`.
fn interval_finding(
    a: &AccessEffect,
    region_scale: u32,
    mk: impl Fn(String, Option<LanePair>) -> Finding,
) -> Option<Finding> {
    match a.addr.index {
        IndexExpr::CsrInterval {
            start_scale,
            extent_scale,
        } => {
            if start_scale != region_scale {
                return Some(mk(
                    format!(
                        "interval start scale {start_scale} does not match the region's \
                         {region_scale} words per edge — carves would misalign"
                    ),
                    None,
                ));
            }
            if extent_scale > start_scale {
                return Some(mk(
                    format!(
                        "extent scale {extent_scale} exceeds start scale {start_scale}: \
                         for any vertex with deg(v) > 0 the interval \
                         {start_scale}·off(v) + 0..{extent_scale}·deg(v) reaches past \
                         {start_scale}·off(v′) of the CSR successor (and past the \
                         region end at the last vertex)"
                    ),
                    Some(LanePair {
                        a: 0,
                        b: 1,
                        assignment: format!(
                            "v=0, v′=1 CSR-adjacent: off(v′) = off(v) + deg(v), so the \
                             overrun is {}·deg(v) words",
                            extent_scale - start_scale
                        ),
                    }),
                ));
            }
            None
        }
        _ => Some(mk(
            "edge-scaled region addressed with a non-interval expression".into(),
            None,
        )),
    }
}

/// The disjointness oracle: can the address sets of two distinct
/// execution units `u ≠ u′` intersect? `None` means *provably disjoint
/// for every graph*; `Some` carries the concrete lane-pair witness.
pub fn overlap_witness(a: &AddrExpr, b: &AddrExpr, distinct_items: bool) -> Option<LanePair> {
    use IndexExpr::*;
    if a.region != b.region {
        return None; // regions tile the address space (verify_layout)
    }
    if a.region == Region::Shared {
        return None; // per-unit private by construction
    }
    match (a.index, b.index) {
        (Fixed, Fixed) => Some(LanePair::new(
            "every lane addresses the region's single word — u=0 and u′=1 collide \
             unconditionally",
        )),
        (OwnVertex, OwnVertex) => {
            if distinct_items {
                None
            } else {
                Some(LanePair::new(
                    "items may repeat within a launch: u=0 and u′=1 both process vertex 0",
                ))
            }
        }
        (OwnVertex, Neighbor) | (Neighbor, OwnVertex) => Some(LanePair::new(
            "u=0, u′=1 with u ∈ N(u′): u′'s neighbour index equals u's own cell",
        )),
        (Neighbor, Neighbor) => Some(LanePair::new(
            "u=0, u′=1 sharing neighbour j=2: both lanes address cell j",
        )),
        (LabelValue, _) | (_, LabelValue) => Some(LanePair::new(
            "a label value is an arbitrary vertex id: c loaded by u′=1 may equal the \
             cell u=0 addresses",
        )),
        (
            CsrInterval {
                start_scale: s1,
                extent_scale: e1,
            },
            CsrInterval {
                start_scale: s2,
                extent_scale: e2,
            },
        ) => {
            if e1 <= s1 && e2 <= s2 && s1 == s2 {
                None // carves tile the region: off(u′) ≥ off(u) + deg(u)
            } else {
                Some(LanePair::new(format!(
                    "u=0, u′=1 CSR-adjacent: extent {}·deg(u) overruns the \
                     {}·off-aligned carve boundary",
                    e1.max(e2),
                    s1.min(s2)
                )))
            }
        }
        // Mixed vertex/interval indexing of one region is already a
        // region-oob finding; stay conservative here.
        _ => Some(LanePair::new(
            "mixed index spaces over one region — not provably disjoint",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_core::shipped_effects;
    use nulpa_simt::effects::AddrExpr;

    #[test]
    fn shipped_kernels_verify_clean() {
        let rep = verify(&shipped_effects());
        assert!(
            rep.is_clean(),
            "shipped kernels must be statically clean:\n{}",
            rep.render()
        );
        assert_eq!(rep.kernels_checked, 3);
        assert!(rep.facts_checked > 50, "suspiciously few facts discharged");
    }

    #[test]
    fn oracle_own_vertex_disjoint_only_with_distinct_items() {
        let own = AddrExpr::new(Region::Labels, IndexExpr::OwnVertex);
        assert!(overlap_witness(&own, &own, true).is_none());
        assert!(overlap_witness(&own, &own, false).is_some());
    }

    #[test]
    fn oracle_neighbor_and_label_value_always_overlap() {
        let own = AddrExpr::new(Region::Labels, IndexExpr::OwnVertex);
        let nbr = AddrExpr::new(Region::Labels, IndexExpr::Neighbor);
        let lv = AddrExpr::new(Region::Labels, IndexExpr::LabelValue);
        assert!(overlap_witness(&own, &nbr, true).is_some());
        assert!(overlap_witness(&nbr, &nbr, true).is_some());
        assert!(overlap_witness(&own, &lv, true).is_some());
    }

    #[test]
    fn oracle_intervals_disjoint_iff_extent_le_start() {
        let ok = AddrExpr::new(
            Region::Keys,
            IndexExpr::CsrInterval {
                start_scale: 2,
                extent_scale: 2,
            },
        );
        let bad = AddrExpr::new(
            Region::Keys,
            IndexExpr::CsrInterval {
                start_scale: 2,
                extent_scale: 3,
            },
        );
        assert!(overlap_witness(&ok, &ok, true).is_none());
        assert!(overlap_witness(&bad, &bad, true).is_some());
        assert!(overlap_witness(&ok, &bad, true).is_some());
    }

    #[test]
    fn oracle_different_regions_disjoint() {
        let a = AddrExpr::new(Region::Labels, IndexExpr::Neighbor);
        let b = AddrExpr::new(Region::Processed, IndexExpr::Neighbor);
        assert!(overlap_witness(&a, &b, true).is_none());
    }

    #[test]
    fn oracle_dn_always_collides() {
        let dn = AddrExpr::new(Region::Dn, IndexExpr::Fixed);
        assert!(overlap_witness(&dn, &dn, true).is_some());
    }

    #[test]
    fn layout_cross_validation_is_silent_on_shipped_map() {
        let mut rep = CheckReport::default();
        verify_layout(&mut rep);
        assert!(rep.is_clean(), "{}", rep.render());
    }
}
