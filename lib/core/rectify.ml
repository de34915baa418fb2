open Sqlval
module A = Sqlast.Ast

let ( let* ) = Result.bind

(* evaluations here run inside the enclosing "rectify" span and count
   toward it; the "interp" phase covers only standalone evaluations
   (scalar targets, aggregate checks, the no-rectification ablation) so
   the phase histograms partition wall time instead of double-counting *)
let eval_tvl _tele env e = Interp.eval_tvl env e

let fail tele =
  Telemetry.inc tele "pqs_rectify_postcondition_failures_total";
  Error "rectification postcondition failed"

(* The decoration that forces [e] (whose raw truth value is [t]) to
   [target]: identity when it already matches, NOT on a definite
   mismatch, IS [NOT] NULL on Unknown. *)
let decoration ~target ~t e =
  if Tvl.equal t target then e
  else if not (Tvl.equal t Tvl.Unknown) then A.Unary (A.Not, e)
  else
    A.Is { negated = not (Tvl.equal target Tvl.True); arg = e; rhs = A.Is_null }

(* Tree-walking rectification: up to three full walks of [e] (the raw
   evaluation, plus the decorated re-evaluation re-walking [e]). *)
let rectify_interpreted telemetry env e ~target =
  let* t = eval_tvl telemetry env e in
  let rectified = decoration ~target ~t e in
  (* the oracle double-checks its own output: the rectified expression
     must evaluate to [target] *)
  let* check = eval_tvl telemetry env rectified in
  if Tvl.equal check target then Ok (rectified, t) else fail telemetry

(* Compiled rectification: [e] is translated once ({!Interp.Compiled});
   the decorated re-evaluation shares its memoized value, so the
   postcondition check costs a combinator application instead of another
   AST walk.  The returned AST is identical to the interpreted path's. *)
let rectify_compiled telemetry env e ~target =
  let open Interp.Compiled in
  let c = compile env e in
  let* t = tvl c in
  let rectified = decoration ~target ~t e in
  let check_c =
    if Tvl.equal t target then c
    else if not (Tvl.equal t Tvl.Unknown) then not_ c
    else if Tvl.equal target Tvl.True then is_null c
    else not_ (is_null c)
  in
  let* check = tvl check_c in
  if Tvl.equal check target then Ok (rectified, t) else fail telemetry

let rectify_to ~telemetry ~backend ~target env e =
  Telemetry.Span.timed telemetry Telemetry.Phase.Rectify (fun () ->
      match backend with
      | Engine.Exec_backend.Interpreted ->
          rectify_interpreted telemetry env e ~target
      | Engine.Exec_backend.Compiled -> rectify_compiled telemetry env e ~target)

let rectify ?(telemetry = Telemetry.noop)
    ?(backend = Engine.Exec_backend.Compiled) env (e : A.expr) =
  rectify_to ~telemetry ~backend ~target:Tvl.True env e

let rectify_to_false ?(telemetry = Telemetry.noop)
    ?(backend = Engine.Exec_backend.Compiled) env (e : A.expr) =
  rectify_to ~telemetry ~backend ~target:Tvl.False env e
