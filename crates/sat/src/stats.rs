use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Search statistics of one solver run.
///
/// These numbers back the `Vars`, `Clauses` and `T[s]` columns of the
/// paper's Table IV (the variable/clause counts come from the CNF itself,
/// the runtime from [`SolverStats::solve_time`]).
///
/// The serde representation is part of the `--stats-json` / `RunReport`
/// schema: field names are stable, and `Duration` fields serialize as
/// `{"secs": u64, "nanos": u32}` (see the golden test below).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of learnt clauses deleted by database reductions.
    pub deleted_clauses: u64,
    /// Number of literals removed by conflict-clause minimization.
    pub minimized_literals: u64,
    /// Wall-clock time of the solve call.
    pub solve_time: Duration,
    /// Number of cancellation-token polls performed in the search loop.
    pub cancel_polls: u64,
    /// Whether the call was aborted by a tripped
    /// [`CancellationToken`](crate::CancellationToken) (as opposed to
    /// exhausting a conflict/time limit or finishing).
    pub cancelled: bool,
    /// Whether the call was aborted by an expired wall-clock
    /// [`Deadline`](crate::Deadline).
    pub deadline_expired: bool,
    /// Number of DRAT proof steps emitted (additions + deletions + the
    /// concluding empty clause). Zero when proof logging is off.
    pub proof_steps: u64,
    /// Total literals across all emitted proof steps — a proxy for the
    /// proof's size on disk.
    pub proof_literals: u64,
    /// Wall-clock time spent checking the emitted proof. Zero until a
    /// caller (e.g. certified synthesis) runs the checker and stamps it.
    pub proof_check_time: Duration,
    /// Whether the emitted proof was run through
    /// [`drat::check`](crate::drat::check) and accepted.
    pub proof_checked: bool,
    /// Number of clauses deleted by forward/backward subsumption during
    /// inprocessing (includes self-subsumption strengthenings that
    /// collapsed a clause onto the trail).
    pub subsumed_clauses: u64,
    /// Number of clauses shortened by self-subsuming resolution during
    /// inprocessing.
    pub strengthened_clauses: u64,
    /// Number of clauses shortened by vivification during inprocessing.
    pub vivified_clauses: u64,
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One line, comma-separated `name value` pairs: bench scrapers rely
        // on this staying parseable.
        write!(
            f,
            "{} conflicts, {} decisions, {} propagations, {} restarts, \
             {} cancel-polls, cancelled {}, deadline-expired {}, \
             {} subsumed, {} strengthened, {} vivified, \
             {} proof-steps, {} proof-literals, \
             checked {} in {:.3}s (+{:.3}s check)",
            self.conflicts,
            self.decisions,
            self.propagations,
            self.restarts,
            self.cancel_polls,
            self.cancelled,
            self.deadline_expired,
            self.subsumed_clauses,
            self.strengthened_clauses,
            self.vivified_clauses,
            self.proof_steps,
            self.proof_literals,
            self.proof_checked,
            self.solve_time.as_secs_f64(),
            self.proof_check_time.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line_with_all_counters() {
        let stats = SolverStats {
            conflicts: 7,
            cancel_polls: 3,
            proof_steps: 11,
            proof_literals: 42,
            proof_checked: true,
            subsumed_clauses: 4,
            strengthened_clauses: 5,
            vivified_clauses: 6,
            ..Default::default()
        };
        let line = stats.to_string();
        assert!(!line.contains('\n'));
        for needle in [
            "7 conflicts",
            "3 cancel-polls",
            "cancelled false",
            "deadline-expired false",
            "4 subsumed",
            "5 strengthened",
            "6 vivified",
            "11 proof-steps",
            "42 proof-literals",
            "checked true",
        ] {
            assert!(line.contains(needle), "missing {needle:?} in {line:?}");
        }
    }

    /// Golden-JSON schema stability: tooling (CI lint, EXPERIMENTS recipes)
    /// parses this exact shape. Changing a field name or the `Duration`
    /// encoding is a schema break and must bump the report schema version.
    #[test]
    fn serde_schema_is_stable() {
        let stats = SolverStats {
            decisions: 1,
            propagations: 2,
            conflicts: 3,
            restarts: 4,
            learnt_clauses: 5,
            deleted_clauses: 6,
            minimized_literals: 7,
            solve_time: Duration::new(1, 500_000_000),
            cancel_polls: 8,
            cancelled: true,
            deadline_expired: false,
            proof_steps: 9,
            proof_literals: 10,
            proof_check_time: Duration::new(0, 250),
            proof_checked: true,
            subsumed_clauses: 12,
            strengthened_clauses: 13,
            vivified_clauses: 14,
        };

        let json = serde_json::to_string(&stats).expect("stats serialize");
        let golden = concat!(
            "{\"decisions\":1,\"propagations\":2,\"conflicts\":3,\"restarts\":4,",
            "\"learnt_clauses\":5,\"deleted_clauses\":6,\"minimized_literals\":7,",
            "\"solve_time\":{\"secs\":1,\"nanos\":500000000},\"cancel_polls\":8,",
            "\"cancelled\":true,\"deadline_expired\":false,\"proof_steps\":9,",
            "\"proof_literals\":10,\"proof_check_time\":{\"secs\":0,\"nanos\":250},",
            "\"proof_checked\":true,\"subsumed_clauses\":12,",
            "\"strengthened_clauses\":13,\"vivified_clauses\":14}"
        );
        assert_eq!(json, golden);

        let back: SolverStats = serde_json::from_str(&json).expect("stats parse");
        assert_eq!(back, stats);
    }
}
