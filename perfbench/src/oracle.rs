//! The concrete-execution oracle behind `wrong_verdicts`.
//!
//! Every final verdict is checked against plain runs of the `lv_interp`
//! interpreter on held-out inputs that the cascade never sees: their own
//! seed, several trials, and loop bounds that are not multiples of the
//! vector width (so a missing scalar epilogue shows). Arrays are bound
//! **positionally** — parameter `i` of the candidate receives the same
//! array as parameter `i` of the scalar, whatever either calls it — so a
//! candidate that renames its array parameters cannot pass vacuously, as it
//! can under the checksum harness's by-name binding.
//!
//! Testing can refute equivalence but never prove it, so the oracle's only
//! hard finding is a refuted `Equivalent` verdict. A `NotEquivalent` verdict
//! the held-out inputs do not reproduce is reported as unconfirmed, not as
//! wrong.
//!
//! An `Equivalent` verdict claims equivalence under the paper's divisibility
//! assumption `(end1 - start1) % m == 0` (Section 3.1): the symbolic stages
//! fix the scalar trip count to a multiple of the unroll factor `m`, so a
//! candidate without a scalar epilogue is, by design, `Equivalent`. Such a
//! verdict refuted only at trip counts outside the assumption is reported
//! apart ([`Oracle::check_assumed`]); it is wrong only when held-out inputs
//! that satisfy the assumption refute it too.

use crate::common::Rng;
use lv_cir::ast::{BinOp, Expr, Function, Type, UnOp};
use lv_cir::hash::structural_hash_in_env;
use lv_cir::structural_hash;
use lv_interp::{run_function, ArgBindings, ExecConfig};
use lv_tv::Alignment;
use std::collections::HashMap;

/// Held-out loop bounds: none is a multiple of 8 except the empty loop.
pub const HELD_OUT_SIZES: [i32; 7] = [0, 1, 7, 9, 17, 63, 257];

/// Held-out trip counts under the divisibility assumption, as multiples of
/// the unroll factor: odd multiples and long loops the symbolic stages (one
/// or a few vector iterations) never unroll.
pub const ASSUMED_TRIP_MULTIPLES: [usize; 5] = [1, 3, 5, 8, 32];

/// Trials per loop bound.
pub const HELD_OUT_TRIALS: u32 = 2;

/// The oracle's own input seed, independent of the checksum harness seed.
pub const HELD_OUT_SEED: u64 = 0x0A4C_1E5E_ED00_0001;

/// Elements allocated past `n` in every array (same slack as the harness).
const SLACK: usize = 8;

/// What the held-out runs say about one `(scalar, candidate)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// The candidate matched the scalar on every input the scalar itself
    /// could run (`inputs` of them, at least one).
    Agrees {
        /// Inputs on which both ran and were compared.
        inputs: usize,
    },
    /// A held-out input tells the two apart.
    Refuted {
        /// What differed, and where.
        detail: String,
    },
    /// The scalar kernel failed on every held-out input; nothing to compare.
    Unchecked,
}

/// The oracle, memoized per content pair (many jobs share a candidate).
#[derive(Debug, Default)]
pub struct Oracle {
    memo: HashMap<(u64, u64), Finding>,
    assumed: HashMap<(u64, u64), Finding>,
}

/// The content key the oracle memoizes on (the verdict cache's pairing).
pub fn content_key(scalar: &Function, candidate: &Function) -> (u64, u64) {
    (
        structural_hash(scalar),
        structural_hash_in_env(candidate, scalar.params.iter().map(|p| p.name.as_str())),
    )
}

impl Oracle {
    /// A fresh oracle.
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// Checks one pair (memoized).
    pub fn check(&mut self, scalar: &Function, candidate: &Function) -> Finding {
        let key = content_key(scalar, candidate);
        if let Some(found) = self.memo.get(&key) {
            return found.clone();
        }
        let found = check_pair(scalar, candidate, &HELD_OUT_SIZES, HELD_OUT_TRIALS);
        self.memo.insert(key, found.clone());
        found
    }

    /// Checks one pair only on held-out loop bounds that satisfy the
    /// divisibility assumption (memoized). A pair the loop alignment rejects,
    /// or whose scalar trip count cannot be met, has no such bounds and is
    /// `Unchecked`.
    pub fn check_assumed(&mut self, scalar: &Function, candidate: &Function) -> Finding {
        let key = content_key(scalar, candidate);
        if let Some(found) = self.assumed.get(&key) {
            return found.clone();
        }
        let found = match assumed_sizes(scalar, candidate) {
            Some(sizes) => check_pair(scalar, candidate, &sizes, HELD_OUT_TRIALS),
            None => Finding::Unchecked,
        };
        self.assumed.insert(key, found.clone());
        found
    }
}

/// The loop bounds (the value of every `int` parameter) at which the scalar
/// loop runs [`ASSUMED_TRIP_MULTIPLES`] times the unroll factor, as the
/// symbolic stages bind them; `None` when the loops do not align.
pub fn assumed_sizes(scalar: &Function, candidate: &Function) -> Option<Vec<i32>> {
    let alignment = lv_tv::align(scalar, candidate).ok()?;
    let m = alignment.unroll_factor.unsigned_abs() as usize;
    let sizes: Vec<i32> = ASSUMED_TRIP_MULTIPLES
        .iter()
        .filter_map(|&k| bound_for_trip(&alignment, k * m))
        .collect();
    (!sizes.is_empty()).then_some(sizes)
}

/// The smallest bound value at which the scalar loop runs exactly `trip`
/// iterations (every variable of the bound expression set to it).
fn bound_for_trip(alignment: &Alignment, trip: usize) -> Option<i32> {
    let l = &alignment.scalar_loop;
    let start = l.start.as_int_lit()?;
    let step = alignment.scalar_step;
    (0..=(4 * trip as i64 + 64)).find_map(|n| {
        let bound = eval_bound(&l.bound, n)?;
        let (mut i, mut count) = (start, 0);
        while count <= trip + 1 {
            let more = match l.cond_op {
                BinOp::Lt => i < bound,
                BinOp::Le => i <= bound,
                BinOp::Ne => i != bound,
                BinOp::Gt => i > bound,
                BinOp::Ge => i >= bound,
                _ => return None,
            };
            if !more {
                break;
            }
            count += 1;
            i += step;
        }
        (count == trip).then(|| i32::try_from(n).ok()).flatten()
    })
}

/// Evaluates a loop-bound expression with every variable set to `n`.
fn eval_bound(expr: &Expr, n: i64) -> Option<i64> {
    match expr {
        Expr::IntLit(v) => Some(*v),
        Expr::Var(_) => Some(n),
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => Some(-eval_bound(expr, n)?),
        Expr::Binary { op, lhs, rhs } => {
            let (l, r) = (eval_bound(lhs, n)?, eval_bound(rhs, n)?);
            match op {
                BinOp::Add => Some(l + r),
                BinOp::Sub => Some(l - r),
                BinOp::Mul => Some(l * r),
                BinOp::Div => (r != 0).then(|| l / r),
                BinOp::Rem => (r != 0).then(|| l % r),
                BinOp::Shr => Some(l >> r.clamp(0, 62)),
                BinOp::Shl => Some(l << r.clamp(0, 62)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Runs `scalar` and `candidate` on positionally bound held-out inputs of
/// every size in `sizes`, `trials` times each.
pub fn check_pair(scalar: &Function, candidate: &Function, sizes: &[i32], trials: u32) -> Finding {
    if scalar.params.len() != candidate.params.len() {
        return Finding::Refuted {
            detail: format!(
                "candidate takes {} parameters, the scalar {}",
                candidate.params.len(),
                scalar.params.len()
            ),
        };
    }
    for (position, (s, c)) in scalar.params.iter().zip(&candidate.params).enumerate() {
        if std::mem::discriminant(&s.ty) != std::mem::discriminant(&c.ty) {
            return Finding::Refuted {
                detail: format!("parameter {} changes type", position),
            };
        }
    }
    if let Err(e) = lv_cir::type_check(candidate) {
        return Finding::Refuted {
            detail: format!("candidate does not compile: {}", e),
        };
    }
    let exec = ExecConfig::default();
    let mut inputs = 0;
    for &n in sizes {
        for trial in 0..trials {
            let mut rng = Rng(HELD_OUT_SEED ^ ((n as u64) << 20) ^ u64::from(trial));
            let mut for_scalar = ArgBindings::new();
            let mut for_candidate = ArgBindings::new();
            for (s, c) in scalar.params.iter().zip(&candidate.params) {
                match s.ty {
                    Type::Int => {
                        for_scalar.scalars.insert(s.name.clone(), n);
                        for_candidate.scalars.insert(c.name.clone(), n);
                    }
                    Type::Ptr(_) => {
                        let data: Vec<i32> = (0..n as usize + SLACK)
                            .map(|_| rng.below(201) as i32 - 100)
                            .collect();
                        for_scalar.arrays.insert(s.name.clone(), data.clone());
                        for_candidate.arrays.insert(c.name.clone(), data);
                    }
                    _ => {}
                }
            }
            let Ok(expected) = run_function(scalar, &for_scalar, &exec) else {
                // The reference itself cannot run this input: no evidence.
                continue;
            };
            let actual = match run_function(candidate, &for_candidate, &exec) {
                Ok(result) => result,
                Err(e) => {
                    return Finding::Refuted {
                        detail: format!("n={} trial {}: candidate failed: {}", n, trial, e),
                    }
                }
            };
            inputs += 1;
            for (s, c) in scalar.params.iter().zip(&candidate.params) {
                if !matches!(s.ty, Type::Ptr(_)) {
                    continue;
                }
                let (want, got) = (&expected.arrays[&s.name], &actual.arrays[&c.name]);
                if let Some(i) = want.iter().zip(got).position(|(a, b)| a != b) {
                    return Finding::Refuted {
                        detail: format!(
                            "n={} trial {}: {}[{}] expected {} got {}",
                            n, trial, s.name, i, want[i], got[i]
                        ),
                    };
                }
            }
        }
    }
    if inputs == 0 {
        Finding::Unchecked
    } else {
        Finding::Agrees { inputs }
    }
}
