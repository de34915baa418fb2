(** The coverage frontier's vocabulary: query-shape fingerprints and the
    per-dialect universe of reachable points.

    The frontier ({!Frontier}) is a vocabulary-agnostic point set; this
    module owns the vocabulary.  Three point groups:

    - [shape.*] — clause-combination fingerprints of a synthesized SELECT:
      join shape (single table / comma cross product / INNER / LEFT),
      derived-table wrapping, WHERE conjunct arity (capped at 3), and the
      DISTINCT / ORDER BY / GROUP BY flags.  One point per query.
    - [expr.*] — the expression-kind multiset of the query's WHERE, JOIN
      and target expressions (comparison, LIKE, BETWEEN, CASE, ...).  One
      point per occurrence, so frontier hit counts are the multiset.
    - [plan.*] — planner access paths, taken from the engine's
      [Engine.Coverage] instrument ([plan.full_scan] ... [plan.or_union]).

    {!universe} enumerates the points reachable for a dialect — the
    denominator of the frontier fraction. *)

open Sqlval

(** The clause-combination and expression-kind points of one synthesized
    SELECT: exactly one [shape.*] point (first) plus one [expr.*] point
    per expression-node occurrence. *)
val fingerprint : Sqlast.Ast.select -> string list

(** Every frontier point reachable for the dialect, in stable display
    order: [shape.*] combinations first, then [expr.*] kinds, then
    [plan.*] paths. *)
val universe : Dialect.t -> string list

(** The [plan.*] subset of {!universe} (what the runner snapshots from
    the coverage instrument). *)
val plan_points : Dialect.t -> string list
