(** The fleet heartbeat: a versioned JSONL record carrying one shard's
    monoid deltas.

    Every worker process periodically appends one {!t} per batch of
    completed rounds to its per-shard file under the fleet directory.  A
    heartbeat is a pure {e delta}: the batch's {!counters} (the additive
    projection of [Stats]), the batch's [Frontier] points, the batch's
    telemetry registry snapshot, and the minimized-repro fingerprints of
    any findings.  Deltas merge with the existing monoid unions, so the
    supervisor's aggregation over arbitrarily split and interleaved
    heartbeats is {e exactly} the sequential reference over the same
    seeds — the fleet's exact-merge invariant ([make fleet] asserts it,
    [test_fleet] proves the split/merge property).

    [next_seed] is the progress watermark: the first seed of the leased
    range {e not yet covered by any emitted heartbeat}.  A killed shard
    is requeued from its last decoded watermark, so no seed is lost and
    none is double-merged.

    The codec is strict and versioned: {!decode} rejects partial lines
    (the tailer simply waits for the terminating newline) and unknown
    versions, and ignores unknown fields, so records can grow. *)

type counters = {
  databases : int;
  pivots : int;
  queries : int;
  statements : int;
  interp_failures : int;
  false_positives : int;
  negative_checks : int;
  plan_checks : int;
  plan_divergences : int;
  const_checks : int;
  const_divergences : int;
  truth_true : int;
  truth_false : int;
  truth_unknown : int;
}
(** The additive integer projection of [Stats.t] — everything except the
    report list (carried as {!report_meta}) and the frontier (carried as
    explicit points). *)

val zero_counters : counters
val counters_of_stats : Pqs.Stats.t -> counters
val add_counters : counters -> counters -> counters

(** The record as a named field list, in declaration order — the codec
    and diff reporting walk this so they can never drift from the record
    shape. *)
val counter_fields : counters -> (string * int) list

type report_meta = {
  rm_fingerprint : string;
      (** hex digest of the minimized repro ([Bug_report.fingerprint]) *)
  rm_oracle : string;  (** [Bug_report.oracle_token] *)
  rm_seed : int;
  rm_bundle : string option;  (** repro bundle path, when one was written *)
}

type t = {
  version : int;  (** codec version; this writer emits {!current_version} *)
  shard : int;  (** worker spawn id (unique per fleet) *)
  slot : int;  (** supervisor slot the shard runs in *)
  seq : int;  (** per-shard sequence number, from 0 *)
  at : float;  (** worker wall-clock seconds (informational only) *)
  range_lo : int;
  range_hi : int;  (** the leased seed range *)
  next_seed : int;  (** progress watermark, see above *)
  rounds : int;  (** rounds covered by this delta *)
  rounds_per_sec : float;  (** the shard's rate over this batch *)
  counters : counters;
  frontier : Frontier.t;
  reports : report_meta list;
  telemetry : Telemetry.sample list;
      (** snapshot of a per-batch registry (a delta by construction) *)
}

val current_version : int

(** One JSON object, no trailing newline.  Point names, oracle tokens and
    fingerprints are escaped, so any path/value round-trips. *)
val encode : t -> string

(** Strict decode; [Error] on truncation, syntax errors, or an
    unsupported version.  Unknown fields are ignored. *)
val decode : string -> (t, string) result

(** Structural equality of the mergeable payload (counters, frontier,
    report multiset), the exact-merge test relation. *)
val equal_payload : t -> t -> bool
