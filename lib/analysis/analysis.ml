(* Static SQL analysis: the library facade.

   Three passes over the shared IRs, all abstract interpretations of the
   reference semantics:

   - Typecheck: storage-class + collation inference per AST node, with
     structured diagnostics for trees the evaluator must reject;
   - Nullability: a not-null / maybe-null / definitely-null lattice
     computed alongside the classes;
   - Plan_lint: consistency checks over Engine.Planner access paths;
   - Const_fold / Interval / Simplify: the abstract-interpretation layer
     behind the const-opt (CODDTest) oracle — evaluator-backed constant
     folding, a per-column value-class/interval domain, and a
     provenance-tracking fixpoint rewriter.

   The passes are pure and engine-independent: PQS wires them into the
   loop (lib/core/lint.ml, lib/core/const_opt.ml) and the sqlancer CLI
   exposes them via the lint subcommand. *)

module Diagnostic = Diagnostic
module Nullability = Nullability
module Typecheck = Typecheck
module Plan_lint = Plan_lint
module Const_fold = Const_fold
module Interval = Interval
module Simplify = Simplify

type env = Typecheck.env

let env = Typecheck.env
let check_expr = Typecheck.check_expr
let check_query = Typecheck.check_query
let check_stmt = Typecheck.check_stmt
let lint_plan = Plan_lint.lint
