open Sqlval
module A = Sqlast.Ast

type ctx = {
  rng : Rng.t;
  dialect : Dialect.t;
  tables : Schema_info.table_info list;
  max_depth : int;
  pool : Value.t list;
      (* values present in the database; literals are biased toward (small
         mutations of) them so that comparisons are tight around real rows *)
}

(* ------------------------------------------------------------------ *)
(* Literals                                                             *)

let literal rng dialect : Value.t =
  let base =
    [
      (2, `Null);
      (6, `Int);
      (3, `Real);
      (6, `Text);
      (1, `Blob);
    ]
  in
  let base =
    if Dialect.equal dialect Dialect.Postgres_like then (3, `Bool) :: base
    else base
  in
  match Rng.pick_weighted rng base with
  | `Null -> Value.Null
  | `Int -> Value.Int (Rng.interesting_int rng)
  | `Real -> Value.Real (Rng.interesting_real rng)
  | `Text -> Value.Text (Rng.small_string rng)
  | `Blob -> Value.Blob (Rng.small_string rng)
  | `Bool -> Value.Bool (Rng.bool rng)

let literal_for_column rng dialect (ty : Datatype.t) : Value.t =
  if Rng.chance rng 0.15 then Value.Null
  else
    match (dialect, ty) with
    | Dialect.Sqlite_like, _ ->
        (* sqlite stores anything anywhere *)
        literal rng dialect
    | _, Datatype.Any -> literal rng dialect
    | _, Datatype.Int { width; unsigned } ->
        let lo, hi = Datatype.int_range width in
        if unsigned then
          Value.Int (Int64.of_int (Rng.int_in rng 0 255))
        else if
          (* mysql (non-strict) clamps out-of-range inserts with a warning;
             feeding it such values exercises that path *)
          Dialect.equal dialect Dialect.Mysql_like
          && width <> Datatype.Big
          && Rng.chance rng 0.15
        then Value.Int (Int64.add hi (Int64.of_int (1 + Rng.int rng 1000)))
        else if Rng.chance rng 0.3 then
          Value.Int (if Rng.bool rng then lo else hi)
        else
          let v = Rng.interesting_int rng in
          let v = if v < lo then lo else if v > hi then hi else v in
          Value.Int v
    | _, Datatype.Serial -> Value.Int (Int64.of_int (Rng.int_in rng 1 100))
    | _, Datatype.Real -> Value.Real (Rng.interesting_real rng)
    | _, Datatype.Text -> Value.Text (Rng.small_string rng)
    | _, Datatype.Blob -> Value.Blob (Rng.small_string rng)
    | _, Datatype.Bool -> (
        match dialect with
        | Dialect.Postgres_like -> Value.Bool (Rng.bool rng)
        | _ -> Value.Int (if Rng.bool rng then 1L else 0L))

(* A literal drawn from the database value pool, possibly mutated in ways
   that probe collation/affinity edges (trailing spaces, case flips,
   off-by-one integers). *)
let pooled_literal ctx : Value.t option =
  match ctx.pool with
  | [] -> None
  | pool ->
      let v = Rng.pick ctx.rng pool in
      let mutated =
        match v with
        | Value.Text s ->
            Rng.pick_weighted ctx.rng
              [
                (4, Value.Text s);
                (2, Value.Text (s ^ " "));
                (1, Value.Text (s ^ "  "));
                (1, Value.Text (String.uppercase_ascii s));
                (1, Value.Text (String.lowercase_ascii s));
              ]
        | Value.Int i ->
            Rng.pick_weighted ctx.rng
              [
                (5, Value.Int i);
                (1, Value.Int (Int64.add i 1L));
                (1, Value.Int (Int64.sub i 1L));
              ]
        | v -> v
      in
      Some mutated

(* ------------------------------------------------------------------ *)
(* Column references                                                    *)

let all_columns ctx =
  List.concat_map
    (fun (ti : Schema_info.table_info) ->
      List.map (fun c -> (ti, c)) ti.Schema_info.ti_columns)
    ctx.tables

let qualify ctx (ti : Schema_info.table_info) (c : Schema_info.column_info) =
  (* qualify when several tables are in scope or columns are ambiguous *)
  let ambiguous =
    List.length
      (List.filter
         (fun (_, (c' : Schema_info.column_info)) ->
           String.lowercase_ascii c'.Schema_info.ci_name
           = String.lowercase_ascii c.Schema_info.ci_name)
         (all_columns ctx))
    > 1
  in
  if ambiguous || (List.length ctx.tables > 1 && Rng.bool ctx.rng)
     || Rng.chance ctx.rng 0.3
  then A.Col { table = Some ti.Schema_info.ti_name; column = c.Schema_info.ci_name }
  else A.Col { table = None; column = c.Schema_info.ci_name }

let random_column ctx : (A.expr * Datatype.t) option =
  match all_columns ctx with
  | [] -> None
  | cols ->
      let ti, c = Rng.pick ctx.rng cols in
      Some (qualify ctx ti c, c.Schema_info.ci_type)

(* ------------------------------------------------------------------ *)
(* Free-form generation (sqlite/mysql; Algorithm 1)                     *)

let rec gen_free ctx depth : A.expr =
  if depth >= ctx.max_depth then gen_leaf ctx
  else
    let rng = ctx.rng in
    let sub () = gen_free ctx (depth + 1) in
    let sqlite = Dialect.equal ctx.dialect Dialect.Sqlite_like in
    let mysql = Dialect.equal ctx.dialect Dialect.Mysql_like in
    let nodes =
      [
        (6, `Leaf);
        (4, `Comparison);
        (5, `Col_vs_lit);
        (3, `Logical);
        (2, `Not);
        (2, `Arith);
        (1, `Unary_misc);
        (2, `Is_null);
        (2, `Is_bool);
        (2, `Between);
        (2, `In);
        (3, `Like);
        (1, `Case);
        (2, `Cast);
        (1, `Func);
        (1, `Bitop);
      ]
      @ (if sqlite then
           [ (2, `Is_expr); (2, `Col_is_lit); (2, `Glob); (2, `Collate);
             (1, `Concat); (2, `Or_of_eqs); (1, `Text_minus_int) ]
         else [])
      @ (if mysql then [ (2, `Null_safe_eq); (1, `Cast_unsigned); (1, `Least) ]
         else [])
    in
    match Rng.pick_weighted rng nodes with
    | `Leaf -> gen_leaf ctx
    | `Comparison ->
        let op = Rng.pick rng [ A.Eq; A.Neq; A.Lt; A.Le; A.Gt; A.Ge ] in
        A.Binary (op, sub (), sub ())
    | `Col_vs_lit -> (
        match random_column ctx with
        | None -> gen_leaf ctx
        | Some (col, _) ->
            let op = Rng.pick rng [ A.Eq; A.Eq; A.Neq; A.Lt; A.Le; A.Gt; A.Ge ] in
            let lit = A.Lit (gen_literal ctx) in
            if Rng.bool rng then A.Binary (op, col, lit)
            else A.Binary (op, lit, col))
    | `Col_is_lit -> (
        (* sqlite's IS / IS NOT over scalars, the Listing 1 shape *)
        match random_column ctx with
        | None -> gen_leaf ctx
        | Some (col, _) ->
            A.Is
              {
                negated = Rng.bool rng;
                arg = col;
                rhs = A.Is_expr (A.Lit (gen_literal ctx));
              })
    | `Logical ->
        A.Binary ((if Rng.bool rng then A.And else A.Or), sub (), sub ())
    | `Not -> A.Unary (A.Not, sub ())
    | `Arith ->
        let op = Rng.pick rng [ A.Add; A.Sub; A.Mul; A.Div; A.Rem ] in
        A.Binary (op, sub (), sub ())
    | `Unary_misc -> A.Unary (Rng.pick rng [ A.Neg; A.Pos; A.Bit_not ], sub ())
    | `Is_null -> A.Is { negated = Rng.bool rng; arg = sub (); rhs = A.Is_null }
    | `Is_bool ->
        A.Is
          {
            negated = Rng.bool rng;
            arg = sub ();
            rhs = (if Rng.bool rng then A.Is_true else A.Is_false);
          }
    | `Between ->
        (* often a column between pooled bounds, probing collation edges *)
        let arg =
          if Rng.chance rng 0.5 then
            match random_column ctx with Some (c, _) -> c | None -> sub ()
          else sub ()
        in
        let bound () =
          if Rng.chance rng 0.6 then A.Lit (gen_literal ctx) else sub ()
        in
        A.Between { negated = Rng.bool rng; arg; lo = bound (); hi = bound () }
    | `In ->
        let n = Rng.int_in rng 1 3 in
        A.In_list
          {
            negated = Rng.bool rng;
            arg = sub ();
            list = List.init n (fun _ -> sub ());
          }
    | `Like ->
        (* patterns are often derived from stored text values so that exact
           and prefix matches actually occur (paper Listing 7's shape) *)
        let pooled_pattern () =
          let texts =
            List.filter_map
              (function Value.Text s -> Some s | _ -> None)
              ctx.pool
          in
          match texts with
          | [] -> gen_pattern rng
          | ts -> (
              let s = Rng.pick rng ts in
              match Rng.int rng 6 with
              | 0 -> s
              | 1 -> s ^ "%"
              | 2 -> "%" ^ s
              | 3 -> String.uppercase_ascii s
              | 4 -> String.lowercase_ascii s
              | _ -> if s = "" then "%" else String.sub s 0 1 ^ "%")
        in
        let pattern =
          if Rng.chance rng 0.4 then A.Lit (Value.Text (pooled_pattern ()))
          else if Rng.chance rng 0.6 then A.Lit (Value.Text (gen_pattern rng))
          else sub ()
        in
        let arg = if Rng.chance rng 0.6 then gen_leaf ctx else sub () in
        A.Like { negated = Rng.bool rng; arg; pattern; escape = None }
    | `Case ->
        let n = Rng.int_in rng 1 2 in
        A.Case
          {
            operand = (if Rng.bool rng then Some (sub ()) else None);
            branches = List.init n (fun _ -> (sub (), sub ()));
            else_ = (if Rng.bool rng then Some (sub ()) else None);
          }
    | `Cast ->
        let ty =
          Rng.pick rng
            [
              Datatype.Int { width = Datatype.Regular; unsigned = false };
              Datatype.Real;
              Datatype.Text;
              Datatype.Blob;
            ]
        in
        A.Cast (ty, sub ())
    | `Cast_unsigned ->
        A.Cast (Datatype.Int { width = Datatype.Big; unsigned = true }, sub ())
    | `Func ->
        let fs =
          [
            (A.F_abs, 1); (A.F_length, 1); (A.F_lower, 1); (A.F_upper, 1);
            (A.F_coalesce, 2); (A.F_ifnull, 2); (A.F_nullif, 2);
            (A.F_trim, 1); (A.F_ltrim, 1); (A.F_rtrim, 1); (A.F_substr, 2);
            (A.F_replace, 3); (A.F_instr, 2); (A.F_hex, 1); (A.F_round, 1);
            (A.F_sign, 1);
          ]
          @ (if sqlite then [ (A.F_typeof, 1); (A.F_quote, 1) ] else [])
        in
        let f, arity = Rng.pick rng fs in
        let arity = match f with A.F_coalesce -> Rng.int_in rng 1 3 | _ -> arity in
        A.Func (f, List.init arity (fun _ -> sub ()))
    | `Bitop ->
        let op = Rng.pick rng [ A.Bit_and; A.Bit_or; A.Shift_left; A.Shift_right ] in
        A.Binary (op, sub (), sub ())
    | `Is_expr ->
        A.Is { negated = Rng.bool rng; arg = sub (); rhs = A.Is_expr (sub ()) }
    | `Glob ->
        let pooled_glob () =
          let texts =
            List.filter_map
              (function Value.Text s when s <> "" -> Some s | _ -> None)
              ctx.pool
          in
          match texts with
          | [] -> gen_glob_pattern rng
          | ts ->
              (* a character class whose range ends exactly at the stored
                 value's first character — the boundary the injected GLOB
                 defect gets wrong *)
              let s = Rng.pick rng ts in
              let c = s.[0] in
              let lo = Char.chr (max 1 (Char.code c - 2)) in
              Printf.sprintf "[%c-%c]*" lo c
        in
        let pattern =
          if Rng.chance rng 0.4 then A.Lit (Value.Text (pooled_glob ()))
          else if Rng.chance rng 0.5 then
            A.Lit (Value.Text (gen_glob_pattern rng))
          else sub ()
        in
        let arg = if Rng.chance rng 0.6 then gen_leaf ctx else sub () in
        A.Glob { negated = Rng.bool rng; arg; pattern }
    | `Or_of_eqs -> (
        (* (c1 = v1) OR (c2 = v2): the shape the OR-union planner path
           wants *)
        match (random_column ctx, random_column ctx) with
        | Some (c1, _), Some (c2, _) ->
            A.Binary
              ( A.Or,
                A.Binary (A.Eq, c1, A.Lit (gen_literal ctx)),
                A.Binary (A.Eq, c2, A.Lit (gen_literal ctx)) )
        | _ -> gen_leaf ctx)
    | `Text_minus_int ->
        (* TEXT minus a large integer: paper Listing 2's precision shape *)
        A.Binary
          ( A.Sub,
            gen_leaf ctx,
            A.Lit
              (Value.Int
                 (Rng.pick rng
                    [ 2851427734582196970L; 9007199254740995L;
                      4611686018427387905L ])) )
    | `Collate -> A.Collate (sub (), Rng.pick rng Collation.all)
    | `Concat -> A.Binary (A.Concat, sub (), sub ())
    | `Null_safe_eq -> A.Binary (A.Null_safe_eq, sub (), sub ())
    | `Least ->
        let f = if Rng.bool rng then A.F_least else A.F_greatest in
        A.Func (f, List.init (Rng.int_in rng 2 3) (fun _ -> sub ()))

and gen_leaf ctx : A.expr =
  if Rng.chance ctx.rng 0.55 then
    match random_column ctx with
    | Some (col, _) -> col
    | None -> A.Lit (gen_literal ctx)
  else A.Lit (gen_literal ctx)

and gen_literal ctx : Value.t =
  if Rng.chance ctx.rng 0.45 then
    match pooled_literal ctx with
    | Some v -> v
    | None -> literal ctx.rng ctx.dialect
  else literal ctx.rng ctx.dialect

and gen_pattern rng =
  let pieces =
    [ "%"; "_"; "a"; "b"; "A"; "0"; "1"; " "; "./"; "ab"; "%a"; "a%"; "_b" ]
  in
  String.concat "" (List.init (Rng.int_in rng 1 3) (fun _ -> Rng.pick rng pieces))

and gen_glob_pattern rng =
  let pieces = [ "*"; "?"; "a"; "b"; "[a-c]"; "[^x]"; "0"; "ab" ] in
  String.concat "" (List.init (Rng.int_in rng 1 3) (fun _ -> Rng.pick rng pieces))

(* ------------------------------------------------------------------ *)
(* Type-directed generation (postgres)                                  *)

type pg_ty = P_int | P_real | P_text | P_bool | P_blob

let pg_ty_of_datatype = function
  | Datatype.Int _ | Datatype.Serial -> P_int
  | Datatype.Real -> P_real
  | Datatype.Text -> P_text
  | Datatype.Bool -> P_bool
  | Datatype.Blob -> P_blob
  | Datatype.Any -> P_int

let pg_pool_literal ctx ty =
  match pooled_literal ctx with
  | Some v
    when (match (ty, v) with
         | P_int, Value.Int _ -> true
         | P_real, Value.Real _ -> true
         | P_text, Value.Text _ -> true
         | P_bool, Value.Bool _ -> true
         | P_blob, Value.Blob _ -> true
         | _ -> false) ->
      Some v
  | _ -> None

let pg_literal rng = function
  | P_int -> Value.Int (Rng.interesting_int rng)
  | P_real -> Value.Real (Rng.interesting_real rng)
  | P_text -> Value.Text (Rng.small_string rng)
  | P_bool -> Value.Bool (Rng.bool rng)
  | P_blob -> Value.Blob (Rng.small_string rng)

let pg_columns_of ctx ty =
  List.filter
    (fun ((_ : Schema_info.table_info), (c : Schema_info.column_info)) ->
      pg_ty_of_datatype c.Schema_info.ci_type = ty)
    (all_columns ctx)

let rec gen_pg ctx depth (ty : pg_ty) : A.expr =
  let rng = ctx.rng in
  let leaf () =
    let cols = pg_columns_of ctx ty in
    if cols <> [] && Rng.chance rng 0.55 then
      let ti, c = Rng.pick rng cols in
      qualify ctx ti c
    else
      match (Rng.chance rng 0.45, pg_pool_literal ctx ty) with
      | true, Some v -> A.Lit v
      | _ -> A.Lit (pg_literal rng ty)
  in
  if depth >= ctx.max_depth then leaf ()
  else
    let sub ty' = gen_pg ctx (depth + 1) ty' in
    let scalar_ty () = Rng.pick rng [ P_int; P_real; P_text; P_bool ] in
    match ty with
    | P_bool -> (
        match
          Rng.pick_weighted rng
            [
              (4, `Leaf);
              (6, `Comparison);
              (4, `Logical);
              (2, `Not);
              (3, `Is_null);
              (2, `Is_bool);
              (2, `Between);
              (2, `In);
              (2, `Like);
              (2, `Distinct);
              (1, `Case);
            ]
        with
        | `Leaf -> leaf ()
        | `Comparison ->
            let t = scalar_ty () in
            let op = Rng.pick rng [ A.Eq; A.Neq; A.Lt; A.Le; A.Gt; A.Ge ] in
            A.Binary (op, sub t, sub t)
        | `Logical ->
            A.Binary ((if Rng.bool rng then A.And else A.Or), sub P_bool, sub P_bool)
        | `Not -> A.Unary (A.Not, sub P_bool)
        | `Is_null ->
            A.Is { negated = Rng.bool rng; arg = sub (scalar_ty ()); rhs = A.Is_null }
        | `Is_bool ->
            A.Is
              {
                negated = Rng.bool rng;
                arg = sub P_bool;
                rhs = (if Rng.bool rng then A.Is_true else A.Is_false);
              }
        | `Between ->
            let t = Rng.pick rng [ P_int; P_real; P_text ] in
            A.Between
              { negated = Rng.bool rng; arg = sub t; lo = sub t; hi = sub t }
        | `In ->
            let t = scalar_ty () in
            A.In_list
              {
                negated = Rng.bool rng;
                arg = sub t;
                list = List.init (Rng.int_in rng 1 3) (fun _ -> sub t);
              }
        | `Like ->
            A.Like
              {
                negated = Rng.bool rng;
                arg = sub P_text;
                pattern = A.Lit (Value.Text (gen_pattern rng));
                escape = None;
              }
        | `Distinct ->
            let t = scalar_ty () in
            A.Is
              {
                negated = false;
                arg = sub t;
                rhs = A.Is_distinct_from (sub t);
              }
        | `Case ->
            A.Case
              {
                operand = None;
                branches = [ (sub P_bool, sub P_bool) ];
                else_ = Some (sub P_bool);
              })
    | P_int -> (
        match
          Rng.pick_weighted rng
            [ (6, `Leaf); (3, `Arith); (1, `Neg); (1, `Abs); (1, `Case) ]
        with
        | `Leaf -> leaf ()
        | `Arith ->
            (* Div/Rem excluded: division by zero errors in postgres *)
            let op = Rng.pick rng [ A.Add; A.Sub; A.Mul ] in
            A.Binary (op, sub P_int, sub P_int)
        | `Neg -> A.Unary (A.Neg, sub P_int)
        | `Abs -> A.Func (A.F_abs, [ sub P_int ])
        | `Case ->
            A.Case
              {
                operand = None;
                branches = [ (sub P_bool, sub P_int) ];
                else_ = Some (sub P_int);
              })
    | P_real -> (
        match
          Rng.pick_weighted rng [ (6, `Leaf); (3, `Arith); (1, `Cast_int) ]
        with
        | `Leaf -> leaf ()
        | `Arith ->
            let op = Rng.pick rng [ A.Add; A.Sub; A.Mul ] in
            A.Binary (op, sub P_real, sub P_real)
        | `Cast_int -> A.Cast (Datatype.Real, sub P_int))
    | P_text -> (
        match
          Rng.pick_weighted rng
            [
              (6, `Leaf); (2, `Concat); (2, `Lower); (1, `Trim); (1, `Substr);
              (1, `Replace); (1, `Cast_int);
            ]
        with
        | `Leaf -> leaf ()
        | `Concat -> A.Binary (A.Concat, sub P_text, sub P_text)
        | `Lower ->
            A.Func ((if Rng.bool rng then A.F_lower else A.F_upper), [ sub P_text ])
        | `Trim ->
            A.Func (Rng.pick rng [ A.F_trim; A.F_ltrim; A.F_rtrim ], [ sub P_text ])
        | `Substr ->
            A.Func (A.F_substr, [ sub P_text; A.Lit (Value.Int (Int64.of_int (Rng.int_in rng (-3) 4))) ])
        | `Replace -> A.Func (A.F_replace, [ sub P_text; sub P_text; sub P_text ])
        | `Cast_int -> A.Cast (Datatype.Text, sub P_int))
    | P_blob -> leaf ()

(* ------------------------------------------------------------------ *)
(* Simple predicates: bare column-vs-literal shapes used as WHERE
   conjuncts so that index access paths actually fire                    *)

let simple_predicate ctx : A.expr =
  let rng = ctx.rng in
  match random_column ctx with
  | None -> A.Lit (literal rng ctx.dialect)
  | Some (col, dt) -> (
      match ctx.dialect with
      | Dialect.Postgres_like -> (
          (* typed: compare against a literal of the column's type *)
          let lit ty = A.Lit (literal_for_column rng ctx.dialect ty) in
          match dt with
          | Datatype.Bool ->
              A.Is
                {
                  negated = Rng.bool rng;
                  arg = col;
                  rhs = (if Rng.bool rng then A.Is_true else A.Is_false);
                }
          | _ ->
              let op = Rng.pick rng [ A.Eq; A.Eq; A.Neq; A.Lt; A.Le; A.Gt; A.Ge ] in
              let l =
                match pooled_literal ctx with
                | Some v
                  when (match (dt, v) with
                       | (Datatype.Int _ | Datatype.Serial), Value.Int _ -> true
                       | Datatype.Real, Value.Real _ -> true
                       | Datatype.Text, Value.Text _ -> true
                       | Datatype.Blob, Value.Blob _ -> true
                       | _ -> false) ->
                    A.Lit v
                | _ -> lit dt
              in
              if Rng.bool rng then A.Binary (op, col, l) else A.Binary (op, l, col))
      | Dialect.Sqlite_like | Dialect.Mysql_like -> (
          let lit = A.Lit (gen_literal ctx) in
          match Rng.pick_weighted rng
                  [
                    (5, `Cmp);
                    (2, `Is_null);
                    ((if Dialect.equal ctx.dialect Dialect.Sqlite_like then 3 else 0), `Is_lit);
                    ((if Dialect.equal ctx.dialect Dialect.Sqlite_like then 2 else 0), `Or_eqs);
                    (2, `Like);
                    (2, `Between);
                    (1, `In);
                  ]
          with
          | `Cmp ->
              let op = Rng.pick rng [ A.Eq; A.Eq; A.Neq; A.Lt; A.Le; A.Gt; A.Ge ] in
              if Rng.bool rng then A.Binary (op, col, lit)
              else A.Binary (op, lit, col)
          | `Or_eqs -> (
              match random_column ctx with
              | Some (col2, _) ->
                  A.Binary
                    ( A.Or,
                      A.Binary (A.Eq, col, lit),
                      A.Binary (A.Eq, col2, A.Lit (gen_literal ctx)) )
              | None -> A.Binary (A.Eq, col, lit))
          | `Is_null -> A.Is { negated = Rng.bool rng; arg = col; rhs = A.Is_null }
          | `Is_lit -> A.Is { negated = Rng.bool rng; arg = col; rhs = A.Is_expr lit }
          | `Like ->
              let texts =
                List.filter_map
                  (function Value.Text s -> Some s | _ -> None)
                  ctx.pool
              in
              let pattern =
                match texts with
                | ts when ts <> [] && Rng.chance rng 0.6 -> (
                    let s = Rng.pick rng ts in
                    match Rng.int rng 3 with
                    | 0 -> s
                    | 1 -> s ^ "%"
                    | _ -> String.uppercase_ascii s)
                | _ -> gen_pattern rng
              in
              A.Like
                {
                  negated = Rng.bool rng;
                  arg = col;
                  pattern = A.text_lit pattern;
                  escape = None;
                }
          | `Between ->
              A.Between
                {
                  negated = Rng.bool rng;
                  arg = col;
                  lo = A.Lit (gen_literal ctx);
                  hi = A.Lit (gen_literal ctx);
                }
          | `In ->
              A.In_list
                {
                  negated = Rng.bool rng;
                  arg = col;
                  list =
                    List.init (Rng.int_in rng 1 3) (fun _ ->
                        A.Lit (gen_literal ctx));
                }))

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)

let condition ctx =
  match ctx.dialect with
  | Dialect.Postgres_like -> gen_pg ctx 0 P_bool
  | Dialect.Sqlite_like | Dialect.Mysql_like -> gen_free ctx 0

let scalar ctx =
  match ctx.dialect with
  | Dialect.Postgres_like ->
      gen_pg ctx 0 (Rng.pick ctx.rng [ P_int; P_real; P_text; P_bool ])
  | Dialect.Sqlite_like when Rng.chance ctx.rng 0.12 -> (
      (* TYPEOF over a column: probes sqlite's type flexibility *)
      match random_column ctx with
      | Some (col, _) -> A.Func (A.F_typeof, [ col ])
      | None -> gen_free ctx 0)
  | Dialect.Sqlite_like | Dialect.Mysql_like -> gen_free ctx 0
