(* The compiled execution backend: queries become OCaml closures.

   A supported query is translated once into a tree of closures over a
   mutable current-row slot, then the operator pipeline (scan, filter,
   project, sort, distinct, limit) drives those closures over fixed-size
   row blocks instead of re-walking the expression AST per row.  All
   value-level semantics — every dialect quirk and injected bug — come
   from Eval's shared operator bodies, so the compiled backend detects
   exactly the bugs the interpreter does; the closures only replicate
   the interpreter's control flow (evaluation order, short circuits,
   coverage points) and pre-resolve what is static (column slots,
   dialect checks, structural bug folds).

   Every query shape compiles, views and aggregation included: grouping,
   the aggregate folds and HAVING come from Executor's shared
   aggregation operator, which this pipeline drives with compiled
   evaluators.  The backend never calls the interpreter and never
   changes observable behaviour, only how fast it happens. *)

open Sqlval
module A = Sqlast.Ast
module Key_tbl = Executor.Key_tbl

let ( let* ) = Result.bind

(* Rows per operator block.  Small enough to stay cache-resident over
   the widest generated tables, large enough to amortize the per-block
   bookkeeping. *)
let block_size = 64

let batches_of n = Stdlib.max 1 ((n + block_size - 1) / block_size)

(* ------------------------------------------------------------------ *)
(* Compilation environment                                             *)

(* A compiled scalar expression: evaluate against the row currently in
   [cur].  Compilation resolves column references to value-array slots
   up front; the closures share one Eval.env whose resolver reads the
   current row, so Eval's metadata-driven helpers (collation, affinity,
   LIKE column checks) see exactly what the interpreter's per-tuple
   environment shows them. *)
type thunk = unit -> (Value.t, Errors.t) result

(* The row under evaluation is a tuple: one value array per FROM-clause
   binding, in binding order — the compiled mirror of the interpreter's
   [Executor.binding list] tuples, with the (identical-per-source)
   metadata hoisted out into the static [layout]. *)
type cenv = {
  env : Eval.env;
  layout : Executor.binding list;  (* null-valued; static metadata *)
  cur : Value.t array array ref;  (* per-binding values of the tuple *)
}

(* Slot resolution replicates Executor.resolve_in (same lookup rules,
   same error messages) but yields binding and column indices instead of
   a value. *)
let resolve_slot (bindings : Executor.binding list) ~table ~column :
    (int * int * Datatype.t * Collation.t, Errors.t) result =
  let lookup bi (b : Executor.binding) =
    let rec go i =
      if i >= Array.length b.Executor.b_columns then None
      else
        let name, dt, coll = b.Executor.b_columns.(i) in
        if Storage.Schema.name_equal name column then Some (bi, i, dt, coll)
        else go (i + 1)
    in
    go 0
  in
  match table with
  | Some t -> (
      let rec find bi = function
        | [] -> None
        | b :: rest ->
            if Storage.Schema.name_equal b.Executor.b_alias t then Some (bi, b)
            else find (bi + 1) rest
      in
      match find 0 bindings with
      | None -> Error (Executor.no_such_binding t)
      | Some (bi, b) -> (
          match lookup bi b with
          | Some r -> Ok r
          | None ->
              Error
                (Errors.makef Errors.No_such_column "no such column: %s.%s"
                   (String.lowercase_ascii t) column)))
  | None -> (
      match List.filter_map Fun.id (List.mapi lookup bindings) with
      | [ r ] -> Ok r
      | [] ->
          Error (Errors.makef Errors.No_such_column "no such column: %s" column)
      | _ :: _ ->
          Error
            (Errors.makef Errors.Ambiguous_column "ambiguous column name: %s"
               column))

let null_values_of (b : Executor.binding) =
  Array.map (fun _ -> Value.Null) b.Executor.b_values

let make_cenv ctx (layout : Executor.binding list) : cenv =
  let cur = ref (Array.of_list (List.map null_values_of layout)) in
  let cache : (string option * string, (int * int * Datatype.t * Collation.t, Errors.t) result) Hashtbl.t =
    Hashtbl.create 8
  in
  let slot ~table ~column =
    match Hashtbl.find_opt cache (table, column) with
    | Some r -> r
    | None ->
        let r = resolve_slot layout ~table ~column in
        Hashtbl.add cache (table, column) r;
        r
  in
  let resolve ~table ~column =
    match slot ~table ~column with
    | Ok (bi, i, dt, coll) ->
        Ok { Eval.value = (!cur).(bi).(i); datatype = dt; collation = coll }
    | Error e -> Error e
  in
  { env = { (Executor.eval_env ctx) with Eval.resolve }; layout; cur }

let cov env point =
  match env.Eval.coverage with None -> () | Some c -> Coverage.hit c point

let cov_ctx (ctx : Executor.ctx) point =
  match ctx.Executor.coverage with None -> () | Some c -> Coverage.hit c point

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)

(* Mirrors Eval.eval case by case: identical coverage points in
   identical order and multiplicity, identical short-circuiting,
   identical error precedence.  Static decisions (slot lookups, dialect
   rejections, the mysql double-negation fold) happen here, once. *)
let rec compile_expr (c : cenv) (e : A.expr) : thunk =
  let env = c.env in
  let dialect = env.Eval.dialect in
  let tvl (t : thunk) =
    let* v = t () in
    Eval.value_tvl env v
  in
  match e with
  | A.Lit v -> fun () -> Ok v
  | A.Col { table; column } -> (
      match resolve_slot c.layout ~table ~column with
      | Ok (bi, i, _, _) ->
          let cur = c.cur in
          fun () -> Ok (!cur).(bi).(i)
      | Error err -> fun () -> Error err)
  | A.Collate (inner, _) -> compile_expr c inner
  | A.Agg _ ->
      let err =
        Errors.make Errors.Invalid_function
          "misuse of aggregate function in scalar context"
      in
      fun () -> Error err
  | A.Unary (A.Not, inner) -> (
      match inner with
      | A.Unary (A.Not, grandchild)
        when Dialect.equal dialect Dialect.Mysql_like
             && Bug.on env.Eval.bugs Bug.My_double_negation_fold ->
          (* mysql Listing 13 class: NOT(NOT x) folded away; the inner
             NOT's coverage point is skipped, like the interpreter *)
          let cg = compile_expr c grandchild in
          fun () ->
            cov env "unop.not";
            cg ()
      (* constant folder treats the NULL literal as FALSE under NOT *)
      | A.Lit Value.Null
        when Dialect.equal dialect Dialect.Sqlite_like
             && Bug.on env.Eval.bugs Bug.Sq_fold_not_null_true ->
          fun () ->
            cov env "unop.not";
            Ok (Eval.bool_value dialect Tvl.True)
      | _ ->
          let ci = compile_expr c inner in
          fun () ->
            cov env "unop.not";
            let* t = tvl ci in
            Ok (Eval.bool_value dialect (Tvl.not_ t)))
  | A.Unary (A.Neg, inner) ->
      let ci = compile_expr c inner in
      fun () ->
        cov env "unop.neg";
        let* v = ci () in
        Eval.neg_value env v
  | A.Unary (A.Pos, inner) ->
      let ci = compile_expr c inner in
      fun () ->
        cov env "unop.pos";
        ci ()
  | A.Unary (A.Bit_not, inner) ->
      let ci = compile_expr c inner in
      fun () ->
        cov env "unop.bit_not";
        let* v = ci () in
        Eval.bit_not_value env v
  | A.Binary (op, a, b) -> compile_binary c op a b
  | A.Is { negated; arg; rhs } -> compile_is c ~negated arg rhs
  | A.Between { negated; arg; lo; hi } ->
      let ca = compile_expr c arg in
      let cl = compile_expr c lo in
      let ch = compile_expr c hi in
      let prep = Eval.between_prep env ~negated ~arg ~lo ~hi in
      fun () ->
        cov env "pred.between";
        let* v = ca () in
        let* vl = cl () in
        let* vh = ch () in
        Eval.between_apply env prep v vl vh
  | A.In_list { negated; arg; list } ->
      let ca = compile_expr c arg in
      let items =
        List.map
          (fun item -> (Eval.compare_prep c.env A.Eq arg item, compile_expr c item))
          list
      in
      fun () ->
        cov env "pred.in";
        let* v = ca () in
        if Value.is_null v then Ok (Eval.bool_value dialect Tvl.Unknown)
        else
          let rec walk saw_null = function
            | [] -> Ok (Eval.in_empty_tvl env ~saw_null)
            | (prep, ci) :: rest ->
                let* vi = ci () in
                if Value.is_null vi then walk true rest
                else
                  let* r = Eval.compare_apply env prep v vi in
                  let* t = Eval.value_tvl env r in
                  if Tvl.equal t Tvl.True then Ok Tvl.True
                  else walk saw_null rest
          in
          let* t = walk false items in
          let t = if negated then Tvl.not_ t else t in
          Ok (Eval.bool_value dialect t)
  | A.Like { negated; arg; pattern; escape } ->
      let ca = compile_expr c arg in
      let cp = compile_expr c pattern in
      let cesc = Option.map (compile_expr c) escape in
      let prep = Eval.like_prep env ~negated ~arg in
      fun () ->
        cov env "pred.like";
        let* v = ca () in
        let* p = cp () in
        let* esc =
          match cesc with
          | None -> Ok None
          | Some ce ->
              let* ve = ce () in
              Eval.like_escape_char ve
        in
        Eval.like_apply env prep v p esc
  | A.Glob { negated; arg; pattern } ->
      if not (Dialect.equal dialect Dialect.Sqlite_like) then
        let err =
          Errors.make Errors.Invalid_function "GLOB is sqlite-specific"
        in
        fun () ->
          cov env "pred.glob";
          Error err
      else
        let ca = compile_expr c arg in
        let cp = compile_expr c pattern in
        fun () ->
          cov env "pred.glob";
          let* v = ca () in
          let* p = cp () in
          Eval.glob_value env ~negated v p
  | A.Cast (ty, inner) ->
      let ci = compile_expr c inner in
      fun () ->
        cov env "pred.cast";
        let* v = ci () in
        Eval.cast_value env ty v
  | A.Func (f, args) ->
      let point = "func." ^ Eval.func_point f in
      if not (Eval.func_available dialect f) then
        let err =
          Errors.makef Errors.Invalid_function "no such function in %s dialect"
            (Dialect.name dialect)
        in
        fun () ->
          cov env point;
          Error err
      else
        let cargs = List.map (compile_expr c) args in
        fun () ->
          cov env point;
          let rec eval_args acc = function
            | [] -> Ok (List.rev acc)
            | t :: rest ->
                let* v = t () in
                eval_args (v :: acc) rest
          in
          let* vs = eval_args [] cargs in
          Eval.apply_func env f vs args
  | A.Case { operand; branches; else_ } ->
      let buggy_null_when =
        Dialect.equal dialect Dialect.Sqlite_like
        && Bug.on env.Eval.bugs Bug.Sq_case_null_when
      in
      let celse = Option.map (compile_expr c) else_ in
      let else_thunk () =
        match celse with Some ce -> ce () | None -> Ok Value.Null
      in
      (match operand with
      | None ->
          let cbranches =
            List.map
              (fun (cond, result) ->
                (compile_expr c cond, compile_expr c result))
              branches
          in
          fun () ->
            cov env "pred.case";
            let rec walk = function
              | [] -> else_thunk ()
              | (ccond, cres) :: rest ->
                  let* t = tvl ccond in
                  let taken =
                    Tvl.equal t Tvl.True
                    || (buggy_null_when && Tvl.equal t Tvl.Unknown)
                  in
                  if taken then cres () else walk rest
            in
            walk cbranches
      | Some op_expr ->
          let cop = compile_expr c op_expr in
          let cbranches =
            List.map
              (fun (cond, result) ->
                ( Eval.compare_prep env A.Eq op_expr cond,
                  compile_expr c cond,
                  compile_expr c result ))
              branches
          in
          fun () ->
            cov env "pred.case";
            let* v = cop () in
            let rec walk = function
              | [] -> else_thunk ()
              | (prep, ccond, cres) :: rest ->
                  let* vc = ccond () in
                  let* r = Eval.compare_apply env prep v vc in
                  let* t = Eval.value_tvl env r in
                  let taken =
                    Tvl.equal t Tvl.True
                    || (buggy_null_when && Tvl.equal t Tvl.Unknown)
                  in
                  if taken then cres () else walk rest
            in
            walk cbranches)

and compile_binary c op a b : thunk =
  let env = c.env in
  let dialect = env.Eval.dialect in
  let tvl (t : thunk) =
    let* v = t () in
    Eval.value_tvl env v
  in
  match op with
  | A.And
    when (match (a, b) with
         | A.Lit Value.Null, _ | _, A.Lit Value.Null -> true
         | _ -> false)
         && Dialect.equal dialect Dialect.Sqlite_like
         && Bug.on env.Eval.bugs Bug.Sq_fold_null_and ->
      (* constant folder rewrites `NULL AND x` to NULL without checking
         whether x is FALSE; operand thunks are skipped, like the
         interpreter *)
      fun () ->
        cov env "binop.and";
        Ok (Eval.bool_value dialect Tvl.Unknown)
  | A.And ->
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      fun () ->
        cov env "binop.and";
        let* ta = tvl ca in
        if Tvl.equal ta Tvl.False then Ok (Eval.bool_value dialect Tvl.False)
        else
          let* tb = tvl cb in
          Ok (Eval.bool_value dialect (Tvl.and_ ta tb))
  | A.Or ->
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      fun () ->
        cov env "binop.or";
        let* ta = tvl ca in
        if Tvl.equal ta Tvl.True then Ok (Eval.bool_value dialect Tvl.True)
        else
          let* tb = tvl cb in
          Ok (Eval.bool_value dialect (Tvl.or_ ta tb))
  | A.Concat when Dialect.equal dialect Dialect.Mysql_like ->
      (* mysql: || is logical OR by default; both coverage points fire,
         like the interpreter's delegation *)
      let c_or = compile_binary c A.Or a b in
      fun () ->
        cov env "binop.concat";
        c_or ()
  | A.Concat ->
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      fun () ->
        cov env "binop.concat";
        let* va = ca () in
        let* vb = cb () in
        if Value.is_null va || Value.is_null vb then Ok Value.Null
        else
          Ok
            (Value.Text
               (Coerce.to_text dialect va ^ Coerce.to_text dialect vb))
  | A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge | A.Null_safe_eq ->
      let point =
        match op with
        | A.Eq -> "binop.eq"
        | A.Neq -> "binop.neq"
        | A.Lt -> "binop.lt"
        | A.Le -> "binop.le"
        | A.Gt -> "binop.gt"
        | A.Ge -> "binop.ge"
        | _ -> "binop.nullsafe_eq"
      in
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      let prep = Eval.compare_prep env op a b in
      fun () ->
        cov env point;
        let* va = ca () in
        let* vb = cb () in
        Eval.compare_apply env prep va vb
  | A.Add | A.Sub | A.Mul | A.Div | A.Rem ->
      let point =
        match op with
        | A.Add -> "binop.add"
        | A.Sub -> "binop.sub"
        | A.Mul -> "binop.mul"
        | A.Div -> "binop.div"
        | _ -> "binop.rem"
      in
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      fun () ->
        cov env point;
        let* va = ca () in
        let* vb = cb () in
        Eval.arith env op a b va vb
  | A.Bit_and | A.Bit_or | A.Shift_left | A.Shift_right ->
      let point =
        match op with
        | A.Bit_and -> "binop.bit_and"
        | A.Bit_or -> "binop.bit_or"
        | A.Shift_left -> "binop.shl"
        | _ -> "binop.shr"
      in
      let ca = compile_expr c a in
      let cb = compile_expr c b in
      fun () ->
        cov env point;
        let* va = ca () in
        let* vb = cb () in
        Eval.bitop env op va vb

and compile_is c ~negated arg rhs : thunk =
  let env = c.env in
  let dialect = env.Eval.dialect in
  match rhs with
  | A.Is_null ->
      let ca = compile_expr c arg in
      fun () ->
        cov env "pred.is";
        let* v = ca () in
        Eval.is_finish env ~negated (Tvl.of_bool (Value.is_null v))
  | A.Is_true | A.Is_false ->
      let want = match rhs with A.Is_true -> Tvl.True | _ -> Tvl.False in
      let ca = compile_expr c arg in
      fun () ->
        cov env "pred.is";
        let* v = ca () in
        Eval.is_bool_value env ~negated ~want v
  | A.Is_expr other ->
      if not (Dialect.equal dialect Dialect.Sqlite_like) then
        let err =
          Errors.make Errors.Invalid_function
            "IS over scalars is sqlite-specific"
        in
        fun () ->
          cov env "pred.is";
          Error err
      else
        let ca = compile_expr c arg in
        let cb = compile_expr c other in
        let prep = Eval.compare_prep env A.Null_safe_eq arg other in
        fun () ->
          cov env "pred.is";
          let* va = ca () in
          let* vb = cb () in
          let* r = Eval.compare_apply env prep va vb in
          let* t = Eval.value_tvl env r in
          Eval.is_finish env ~negated t
  | A.Is_distinct_from other ->
      if not (Dialect.equal dialect Dialect.Postgres_like) then
        let err =
          Errors.make Errors.Invalid_function
            "IS DISTINCT FROM is postgres-specific"
        in
        fun () ->
          cov env "pred.is";
          Error err
      else
        let ca = compile_expr c arg in
        let cb = compile_expr c other in
        let prep = Eval.compare_prep env A.Null_safe_eq arg other in
        fun () ->
          cov env "pred.is";
          let* va = ca () in
          let* vb = cb () in
          let* r = Eval.compare_apply env prep va vb in
          let* t = Eval.value_tvl env r in
          Eval.is_finish env ~negated (Tvl.not_ t)

(* ------------------------------------------------------------------ *)
(* Projection                                                          *)

(* A compiled SELECT item: fills output values for the current row. *)
type proj =
  | P_star  (* every binding's values, in binding order *)
  | P_binding of int  (* t.*: one binding's values *)
  | P_error of Errors.t  (* t.* naming no binding: fails at projection *)
  | P_expr of thunk

let compile_items c items =
  List.map
    (function
      | A.Star -> P_star
      | A.Table_star t -> (
          let rec find i = function
            | [] -> P_error (Executor.no_such_binding t)
            | b :: rest ->
                if Storage.Schema.name_equal b.Executor.b_alias t then
                  P_binding i
                else find (i + 1) rest
          in
          find 0 c.layout)
      | A.Sel_expr (e, _) -> P_expr (compile_expr c e))
    items

(* Project the tuple currently in [c.cur] through the compiled item
   list ([tuple] is the same array the caller stored into [c.cur]). *)
let project (tuple : Value.t array array) projs :
    (Value.t array, Errors.t) result =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.concat (List.rev acc)))
    | p :: rest -> (
        match p with
        | P_star ->
            go
              (List.concat_map Array.to_list (Array.to_list tuple) :: acc)
              rest
        | P_binding i -> go (Array.to_list tuple.(i) :: acc) rest
        | P_error e -> Error e
        | P_expr t ->
            let* v = t () in
            go ([ v ] :: acc) rest)
  in
  go [] projs

(* ------------------------------------------------------------------ *)
(* The batched pipeline                                                *)

(* A materialized FROM item: static per-binding metadata plus the
   tuples, one value array per binding (joins contribute the bindings
   of both sides, concatenated in textual order). *)
type source = {
  src_layout : Executor.binding list;
  src_tuples : Value.t array array list;
}

(* Run compiled thunks in order, stopping at the first error. *)
let run_thunks (ts : thunk list) =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | t :: rest ->
        let* v = t () in
        go (v :: acc) rest
  in
  go [] ts

(* The comma-FROM cross product fused with the WHERE filter: one loop
   level per item blits that item's tuple into the cenv's scratch tuple,
   so the predicate runs without materializing the product and a
   combined tuple is allocated only for a surviving row.  Iteration
   order is the interpreter's (first item outermost; under the forced
   join swap the second of two items is outermost, binding order
   unchanged), so coverage, the first error and the FILTER event's
   counts all match it.  Returns the survivors and whether the product
   was non-empty. *)
let filter_product ctx (c : cenv) pred (sources : source list) :
    (Value.t array array list * bool, Errors.t) result =
  let srcs =
    Array.of_list (List.map (fun src -> Array.of_list src.src_tuples) sources)
  in
  let k = Array.length srcs in
  let widths =
    Array.of_list (List.map (fun src -> List.length src.src_layout) sources)
  in
  let offsets = Array.make k 0 in
  for i = 1 to k - 1 do
    offsets.(i) <- offsets.(i - 1) + widths.(i - 1)
  done;
  let order =
    if k = 2 && Executor.swap_join_forced ctx then [| 1; 0 |]
    else Array.init k Fun.id
  in
  let n = Array.fold_left (fun acc src -> acc * Array.length src) 1 srcs in
  let filter_t0 = Executor.op_clock ctx in
  let scratch = !(c.cur) in
  let acc = ref [] in
  let err = ref None in
  (* a single item's tuple already is the whole tuple *)
  let keep tuple = acc := (if k = 1 then tuple else Array.copy scratch) :: !acc in
  let test =
    match pred with
    | None -> keep
    | Some p -> (
        fun tuple ->
          match p () with
          | Ok v -> (
              match Eval.value_tvl c.env v with
              | Ok Tvl.True -> keep tuple
              | Ok (Tvl.False | Tvl.Unknown) -> ()
              | Error e -> err := Some e)
          | Error e -> err := Some e)
  in
  let rec loop d =
    let si = order.(d) in
    let src = srcs.(si) and off = offsets.(si) and w = widths.(si) in
    let last = d = k - 1 in
    let i = ref 0 in
    while Option.is_none !err && !i < Array.length src do
      let tuple = src.(!i) in
      Array.blit tuple 0 scratch off w;
      if last then test tuple else loop (d + 1);
      incr i
    done
  in
  if k > 0 then loop 0;
  match !err with
  | Some e -> Error e
  | None ->
      let rows = List.rev !acc in
      if Option.is_some pred && Executor.tracing ctx then
        Executor.op_event ctx ~op:"FILTER" ~detail:"WHERE" ~rows_in:n
          ~rows_out:(List.length rows) ~batches:(batches_of n) ~t0:filter_t0
          ();
      Ok (rows, n > 0)

(* One compiled-and-executed SELECT. *)
let rec run_select ctx (s : A.select) : (Executor.result_set, Errors.t) result =
  let where = s.A.sel_where in
  if s.A.sel_from = [] then begin
    (* constant SELECT: project once, keep the row if WHERE passes;
       DISTINCT/ORDER BY/LIMIT do not apply, like the interpreter *)
    let c = make_cenv ctx [] in
    let* columns = Executor.output_columns ctx [] s.A.sel_items in
    let projs = compile_items c s.A.sel_items in
    let* row = project [||] projs in
    let* rows =
      match where with
      | None -> Ok [ row ]
      | Some w -> (
          let p = compile_expr c w in
          match p () with
          | Ok v -> (
              match Eval.value_tvl c.env v with
              | Ok Tvl.True -> Ok [ row ]
              | Ok (Tvl.False | Tvl.Unknown) -> Ok []
              | Error e -> Error e)
          | Error e -> Error e)
    in
    Ok { Executor.rs_columns = columns; rs_rows = rows }
  end
  else begin
    let cond_has_cast =
      (match where with Some w -> Executor.has_cast w | None -> false)
      || List.exists
           (function
             | A.Sel_expr (e, _) -> Executor.has_cast e
             | A.Star | A.Table_star _ -> false)
           s.A.sel_items
    in
    let cond_has_ifnull =
      match where with Some w -> Executor.has_ifnull w | None -> false
    in
    let base_table_count =
      let rec count = function
        | A.F_table _ -> 1
        | A.F_join { left; right; _ } -> count left + count right
        | A.F_sub _ -> 1
      in
      List.fold_left (fun acc it -> acc + count it) 0 s.A.sel_from
    in
    let fctx =
      {
        Executor.in_join = base_table_count > 1;
        cond_has_cast;
        cond_has_ifnull;
        distinct = s.A.sel_distinct;
      }
    in
    (* FROM: materialize each comma item, then the cross product, in
       the interpreter's order (scans and their flight-recorder events
       happen in textual order even under a forced join swap) *)
    let* sources =
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
            let* src = materialize ctx fctx ~where item in
            go (src :: acc) rest
      in
      go [] s.A.sel_from
    in
    let layout = List.concat_map (fun src -> src.src_layout) sources in
    let c = make_cenv ctx layout in
    (* WHERE *)
    let pred = Option.map (compile_expr c) where in
    let* filtered, product_nonempty = filter_product ctx c pred sources in
    (* output columns come from a sample tuple: the runtime layout when
       the FROM produced tuples, nothing when it was empty (observable:
       [*] over an empty product has no columns) *)
    let sample = if product_nonempty then c.layout else [] in
    let* columns = Executor.output_columns ctx sample s.A.sel_items in
    let* out_rows_with_keys =
      if Executor.select_has_agg s then begin
        cov_ctx ctx "exec.group_by";
        let agg_t0 = Executor.op_clock ctx in
        let* groups =
          Executor.group_rows ctx s filtered ~key_of:(fun exprs ->
              let thunks = List.map (compile_expr c) exprs in
              fun tuple ->
                c.cur := tuple;
                let* ks = run_thunks thunks in
                Ok (Array.of_list ks))
        in
        (* a group's representative: the FROM layout holding its first
           tuple, or no bindings at all for an empty group *)
        let rep_env = function
          | tuple :: _ ->
              c.cur := tuple;
              c
          | [] -> make_cenv ctx []
        in
        let* rows =
          Executor.aggregate ctx s groups
            ~values:(fun group a ->
              let t = compile_expr c a in
              run_thunks
                (List.map
                   (fun tuple () ->
                     c.cur := tuple;
                     t ())
                   group))
            ~eval:(fun group e ->
              let c = rep_env group in
              compile_expr c e ())
            ~project:(fun group items ->
              let c = rep_env group in
              project !(c.cur) (compile_items c items))
        in
        (if Executor.tracing ctx then
           let n_in = List.length filtered in
           Executor.op_event ctx ~op:"AGGREGATE"
             ~detail:(if s.A.sel_group_by = [] then "" else "GROUP BY")
             ~rows_in:n_in ~rows_out:(List.length rows)
             ~batches:(batches_of n_in) ~t0:agg_t0 ());
        Ok rows
      end
      else begin
        (* projection + ORDER BY keys *)
        let projs = compile_items c s.A.sel_items in
        let order_thunks =
          List.map (fun (e, _) -> compile_expr c e) s.A.sel_order_by
        in
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | values :: rest ->
              c.cur := values;
              let* row = project values projs in
              let* ks = run_thunks order_thunks in
              go ((row, ks) :: acc) rest
        in
        go [] filtered
      end
    in
    (* DISTINCT *)
    let out_rows_with_keys =
      if s.A.sel_distinct then begin
        cov_ctx ctx "exec.distinct";
        let d_t0 = Executor.op_clock ctx in
        let n_in =
          if Executor.tracing ctx then List.length out_rows_with_keys else 0
        in
        let deduped =
          Executor.dedup_by
            ~key:(fun (row, _) -> Executor.row_key row)
            out_rows_with_keys
        in
        if Executor.tracing ctx then
          Executor.op_event ctx ~op:"DISTINCT" ~rows_in:n_in
            ~rows_out:(List.length deduped) ~batches:(batches_of n_in)
            ~t0:d_t0 ();
        deduped
      end
      else out_rows_with_keys
    in
    (* ORDER BY *)
    let ordered =
      if s.A.sel_order_by = [] then
        if Options.reverse_unordered_selects ctx.Executor.options then
          List.rev out_rows_with_keys
        else out_rows_with_keys
      else begin
        cov_ctx ctx "exec.order_by";
        let sort_t0 = Executor.op_clock ctx in
        (* per-key collations from the static layout env: identical to
           the interpreter's sample tuple whenever any row exists, and
           irrelevant when none does *)
        let dirs_and_colls =
          List.map
            (fun (e, dir) ->
              let coll =
                match Eval.column_meta c.env e with
                | Some (_, cl) -> cl
                | None -> Collation.Binary
              in
              let coll = match e with A.Collate (_, cl) -> cl | _ -> coll in
              (dir, coll))
            s.A.sel_order_by
        in
        List.stable_sort
          (fun (_, ka) (_, kb) ->
            let rec cmp ks1 ks2 dcs =
              match (ks1, ks2, dcs) with
              | k1 :: r1, k2 :: r2, (d, coll) :: rd ->
                  let cm = Value.compare_total ~collation:coll k1 k2 in
                  let cm = match d with A.Asc -> cm | A.Desc -> -cm in
                  if cm <> 0 then cm else cmp r1 r2 rd
              | _ -> 0
            in
            cmp ka kb dirs_and_colls)
          out_rows_with_keys
        |> fun sorted ->
        (if Executor.tracing ctx then
           let n = List.length sorted in
           Executor.op_event ctx ~op:"SORT"
             ~detail:
               (Printf.sprintf "%d keys" (List.length s.A.sel_order_by))
             ~rows_in:n ~rows_out:n ~batches:(batches_of n) ~t0:sort_t0 ());
        sorted
      end
    in
    (* LIMIT / OFFSET *)
    let limit_t0 = Executor.op_clock ctx in
    let rows = List.map fst ordered in
    let pre_limit = if Executor.tracing ctx then List.length rows else 0 in
    let rows =
      match s.A.sel_offset with
      | None -> rows
      | Some off ->
          cov_ctx ctx "exec.limit";
          let off = Int64.to_int off in
          if off <= 0 then rows
          else List.filteri (fun i _ -> i >= off) rows
    in
    let rows =
      match s.A.sel_limit with
      | None -> rows
      | Some n ->
          cov_ctx ctx "exec.limit";
          let n = Int64.to_int n in
          if n < 0 then rows else List.filteri (fun i _ -> i < n) rows
    in
    if
      Executor.tracing ctx
      && (s.A.sel_limit <> None || s.A.sel_offset <> None)
    then
      Executor.op_event ctx ~op:"LIMIT" ~rows_in:pre_limit
        ~rows_out:(List.length rows) ~batches:(batches_of pre_limit)
        ~t0:limit_t0 ();
    Ok { Executor.rs_columns = columns; rs_rows = rows }
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

and run_query ctx (q : A.query) : (Executor.result_set, Errors.t) result =
  (* corruption gates every read, like the interpreter *)
  match Storage.Catalog.corruption ctx.Executor.catalog with
  | Some msg -> Error (Errors.make Errors.Malformed_database msg)
  | None -> (
      match q with
      | A.Q_select s -> run_select ctx s
      | A.Q_values rows ->
          cov_ctx ctx "exec.values";
          let c = make_cenv ctx [] in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | row :: rest ->
                let* r = run_thunks (List.map (compile_expr c) row) in
                go (Array.of_list r :: acc) rest
          in
          let* rows = go [] rows in
          let width = match rows with r :: _ -> Array.length r | [] -> 0 in
          let columns =
            List.init width (fun i -> Printf.sprintf "column%d" (i + 1))
          in
          Ok { Executor.rs_columns = columns; rs_rows = rows }
      | A.Q_compound (op, qa, qb) ->
          (match op with
          | A.Union | A.Union_all -> cov_ctx ctx "exec.compound_union"
          | A.Intersect -> cov_ctx ctx "exec.compound_intersect"
          | A.Except -> cov_ctx ctx "exec.compound_except");
          let* ra = run_query ctx qa in
          let* rb = run_query ctx qb in
          let compound_t0 = Executor.op_clock ctx in
          let wa = List.length ra.Executor.rs_columns
          and wb = List.length rb.Executor.rs_columns in
          if wa <> wb then
            Error
              (Errors.make Errors.Syntax_error
                 "SELECTs to the left and right of a compound operator do \
                  not have the same number of result columns")
          else
            let keyset rows =
              let t = Key_tbl.create 16 in
              List.iter
                (fun r -> Key_tbl.replace t (Executor.row_key r) ())
                rows;
              t
            in
            let rows =
              match op with
              | A.Union ->
                  Executor.dedup_rows
                    (ra.Executor.rs_rows @ rb.Executor.rs_rows)
              | A.Union_all -> ra.Executor.rs_rows @ rb.Executor.rs_rows
              | A.Intersect ->
                  (* left-driven: a left row is in the output iff its key
                     appears anywhere on the right, so hash the (typically
                     tiny — the containment check's VALUES side) left and
                     stop scanning the right once every left key has been
                     seen *)
                  let want = keyset ra.Executor.rs_rows in
                  let missing = ref (Key_tbl.length want) in
                  let found = Key_tbl.create 16 in
                  let rec scan = function
                    | [] -> ()
                    | r :: rest ->
                        if !missing > 0 then begin
                          let k = Executor.row_key r in
                          (if Key_tbl.mem want k && not (Key_tbl.mem found k)
                           then begin
                             Key_tbl.replace found k ();
                             decr missing
                           end);
                          scan rest
                        end
                  in
                  scan rb.Executor.rs_rows;
                  Executor.dedup_rows
                    (List.filter
                       (fun r -> Key_tbl.mem found (Executor.row_key r))
                       ra.Executor.rs_rows)
              | A.Except ->
                  let inb = keyset rb.Executor.rs_rows in
                  Executor.dedup_rows
                    (List.filter
                       (fun r -> not (Key_tbl.mem inb (Executor.row_key r)))
                       ra.Executor.rs_rows)
            in
            let n_in =
              List.length ra.Executor.rs_rows + List.length rb.Executor.rs_rows
            in
            if Executor.tracing ctx then
              Executor.op_event ctx ~op:"COMPOUND"
                ~detail:
                  (match op with
                  | A.Union -> "UNION"
                  | A.Union_all -> "UNION ALL"
                  | A.Intersect -> "INTERSECT"
                  | A.Except -> "EXCEPT")
                ~rows_in:n_in ~rows_out:(List.length rows)
                ~batches:(batches_of n_in) ~t0:compound_t0 ();
            Ok { Executor.rs_columns = ra.Executor.rs_columns; rs_rows = rows })

(* One FROM item, materialized: the compiled mirror of the interpreter's
   from_tuples — identical coverage points, operator events, scan-site
   bug behaviour and error order, with the join's ON predicate compiled
   once against the combined layout instead of re-walked per pair. *)
and materialize ctx fctx ~where (item : A.from_item) :
    (source, Errors.t) result =
  match item with
  | A.F_table { name; alias } -> (
      let alias_name = Option.value ~default:name alias in
      match Storage.Catalog.find_table ctx.Executor.catalog name with
      | Some ts ->
          let* rows, _used_skip_scan =
            Executor.scan_rows ctx fctx ~where ~table:name ~alias:alias_name
              ~block_size ts
          in
          let schema = ts.Storage.Catalog.schema in
          let layout =
            [
              Executor.binding_of_table schema ~alias:alias_name
                (Array.map
                   (fun (_ : Storage.Schema.column) -> Value.Null)
                   schema.Storage.Schema.columns);
            ]
          in
          Ok
            {
              src_layout = layout;
              src_tuples =
                List.map (fun (r, _) -> [| r.Storage.Row.values |]) rows;
            }
      | None -> (
          match Storage.Catalog.find_view ctx.Executor.catalog name with
          | Some v ->
              let* columns, rows =
                Executor.expand_view ctx ~run:run_query ~where
                  ~alias:alias_name ~block_size v
              in
              let layout =
                [
                  {
                    Executor.b_alias = String.lowercase_ascii alias_name;
                    b_columns = columns;
                    b_values = Array.map (fun _ -> Value.Null) columns;
                  };
                ]
              in
              Ok
                {
                  src_layout = layout;
                  src_tuples = List.map (fun row -> [| row |]) rows;
                }
          | None ->
              Error
                (Errors.makef Errors.No_such_table "no such table: %s" name)))
  | A.F_sub { sub; alias } ->
      (* derived table, materialized through the compiled pipeline;
         columns are untyped and binary-collated, like the interpreter *)
      cov_ctx ctx "exec.subquery";
      let sub_t0 = Executor.op_clock ctx in
      let* rs = run_query ctx sub in
      let columns =
        Array.of_list
          (List.map
             (fun cname ->
               (String.lowercase_ascii cname, Datatype.Any, Collation.Binary))
             rs.Executor.rs_columns)
      in
      let layout =
        [
          {
            Executor.b_alias = String.lowercase_ascii alias;
            b_columns = columns;
            b_values = Array.map (fun _ -> Value.Null) columns;
          };
        ]
      in
      (if Executor.tracing ctx then
         let n = List.length rs.Executor.rs_rows in
         Executor.op_event ctx ~op:"SUBQUERY" ~detail:alias ~rows_in:n
           ~rows_out:n ~batches:(batches_of n) ~t0:sub_t0 ());
      Ok
        {
          src_layout = layout;
          src_tuples = List.map (fun row -> [| row |]) rs.Executor.rs_rows;
        }
  | A.F_join { kind; left; right; on } ->
      (match kind with
      | A.Inner -> cov_ctx ctx "exec.join_inner"
      | A.Left -> cov_ctx ctx "exec.join_left"
      | A.Cross -> cov_ctx ctx "exec.join_cross");
      let* l = materialize ctx fctx ~where:None left in
      let* r = materialize ctx fctx ~where:None right in
      run_join ctx ~kind ~on ~right_item:right l r

(* Nested-loop join over two materialized sides.  The ON predicate is
   compiled once against [left @ right] and evaluated against a scratch
   tuple whose halves are refreshed by the loops; everything observable
   (coverage, evaluation order, LEFT null extension, the forced join
   swap, the JOIN event's row counts) matches the interpreter. *)
and run_join ctx ~kind ~on ~right_item (l : source) (r : source) :
    (source, Errors.t) result =
  let join_t0 = Executor.op_clock ctx in
  let nl = List.length l.src_layout and nr = List.length r.src_layout in
  let full_layout = l.src_layout @ r.src_layout in
  let con =
    match on with
    | None -> None
    | Some cond ->
        let c = make_cenv ctx full_layout in
        Some (c, compile_expr c cond)
  in
  (* blit target: the cenv's own null tuple, so compile-time metadata
     resolution (collation/affinity prep) saw properly-shaped arrays *)
  let scratch = match con with Some (c, _) -> !(c.cur) | None -> [||] in
  let set_left lt =
    match con with Some _ -> Array.blit lt 0 scratch 0 nl | None -> ()
  in
  let set_right rt =
    match con with Some _ -> Array.blit rt 0 scratch nl nr | None -> ()
  in
  let eval_on c p =
    let* v = p () in
    Eval.value_tvl c.env v
  in
  (* the NULL-padded right extension for unmatched LEFT rows: shaped
     like the first right tuple, or built from the schemas when the
     right side is empty — where a derived table contributes nothing,
     exactly like the interpreter's null_shape, so the layout shrinks *)
  let rec null_shape item =
    match item with
    | A.F_table { name; alias } -> (
        match Storage.Catalog.find_table ctx.Executor.catalog name with
        | Some ts ->
            let schema = ts.Storage.Catalog.schema in
            [
              Executor.binding_of_table schema
                ~alias:(Option.value ~default:name alias)
                (Array.map
                   (fun (_ : Storage.Schema.column) -> Value.Null)
                   schema.Storage.Schema.columns);
            ]
        | None -> [])
    | A.F_join { left; right; _ } -> null_shape left @ null_shape right
    | A.F_sub _ -> []
  in
  let out_layout, ext =
    match r.src_tuples with
    | sample :: _ ->
        ( full_layout,
          Array.map (Array.map (fun (_ : Value.t) -> Value.Null)) sample )
    | [] ->
        let shape = null_shape right_item in
        ( l.src_layout @ shape,
          Array.of_list (List.map (fun b -> b.Executor.b_values) shape) )
  in
  let combine () =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | lt :: rest ->
          set_left lt;
          let rec walk_right acc_r matched = function
            | [] ->
                let acc_r =
                  if (not matched) && kind = A.Left then
                    Array.append lt ext :: acc_r
                  else acc_r
                in
                Ok acc_r
            | rt :: more -> (
                match (kind, con) with
                | A.Cross, _ | _, None ->
                    walk_right (Array.append lt rt :: acc_r) true more
                | _, Some (c, p) -> (
                    set_right rt;
                    match eval_on c p with
                    | Ok Tvl.True ->
                        walk_right (Array.append lt rt :: acc_r) true more
                    | Ok (Tvl.False | Tvl.Unknown) ->
                        walk_right acc_r matched more
                    | Error e -> Error e))
          in
          let* produced = walk_right [] false r.src_tuples in
          go (List.rev_append produced acc) rest
    in
    go [] l.src_tuples
  in
  (* forced join-order swap: right side drives the outer loop; bindings
     still concatenate in textual order.  LEFT joins are never swapped:
     their NULL extension is asymmetric. *)
  let swap =
    Executor.swap_join_forced ctx
    && match kind with A.Inner | A.Cross -> true | A.Left -> false
  in
  let combine_swapped () =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | rt :: rest ->
          set_right rt;
          let rec walk_left acc_l = function
            | [] -> Ok acc_l
            | lt :: more -> (
                match (kind, con) with
                | A.Cross, _ | _, None ->
                    walk_left (Array.append lt rt :: acc_l) more
                | _, Some (c, p) -> (
                    set_left lt;
                    match eval_on c p with
                    | Ok Tvl.True ->
                        walk_left (Array.append lt rt :: acc_l) more
                    | Ok (Tvl.False | Tvl.Unknown) -> walk_left acc_l more
                    | Error e -> Error e))
          in
          let* produced = walk_left [] l.src_tuples in
          go (List.rev_append produced acc) rest
    in
    go [] r.src_tuples
  in
  let* tuples = if swap then combine_swapped () else combine () in
  if Executor.tracing ctx then
    Executor.op_event ctx ~op:"JOIN"
      ~detail:
        ((match kind with
         | A.Inner -> "INNER"
         | A.Left -> "LEFT"
         | A.Cross -> "CROSS")
        ^ if swap then " (forced swap)" else "")
      ~rows_in:(List.length l.src_tuples + List.length r.src_tuples)
      ~rows_out:(List.length tuples)
      ~batches:(batches_of (List.length tuples))
      ~t0:join_t0 ();
  Ok { src_layout = out_layout; src_tuples = tuples }
