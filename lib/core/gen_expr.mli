(** Random expression generation (paper Algorithm 1).

    Expressions are ASTs over the schema's column names and random
    constants, bounded by [max_depth].  For the sqlite-like and mysql-like
    dialects any type is acceptable in a boolean context (implicit
    conversions); for the postgres-like dialect generation is type-directed
    and the root must be boolean (paper Section 3.2). *)

open Sqlval

type ctx = {
  rng : Rng.t;
  dialect : Dialect.t;
  tables : Schema_info.table_info list;  (** tables in scope *)
  max_depth : int;
  pool : Sqlval.Value.t list;
      (** values present in the database: literal generation is biased
          toward small mutations of them (trailing spaces, case flips,
          off-by-one), which is what makes collation/affinity bug classes
          reachable within realistic budgets *)
}

(** A condition candidate for WHERE/JOIN (boolean-valued root for
    postgres). *)
val condition : ctx -> Sqlast.Ast.expr

(** An arbitrary scalar expression (used by the expressions-on-columns
    extension of paper Section 3.4). *)
val scalar : ctx -> Sqlast.Ast.expr

(** A bare column-vs-literal predicate (comparison, IS, LIKE, BETWEEN, IN)
    used as a WHERE conjunct; these shapes are what index access paths key
    on. *)
val simple_predicate : ctx -> Sqlast.Ast.expr

(** A random constant of a random type suitable for the dialect. *)
val literal : Rng.t -> Dialect.t -> Value.t

(** A literal whose value can be stored in a column of the given type in
    the given dialect without erroring (used by INSERT generation). *)
val literal_for_column : Rng.t -> Dialect.t -> Datatype.t -> Value.t
