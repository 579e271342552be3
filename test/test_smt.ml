(* SAT solver and bit-blaster: unit formulas, pigeonhole unsatisfiability,
   and differential testing of the circuits against concrete evaluation. *)

module Sat = Veriopt_smt.Sat
module Expr = Veriopt_smt.Expr
module Solver = Veriopt_smt.Solver
module Bitblast = Veriopt_smt.Bitblast

let lit v = Sat.lit_of_var v
let nlit v = Sat.lit_of_var ~sign:false v

let sat_result =
  Alcotest.testable
    (fun ppf -> function
      | Sat.Sat -> Fmt.string ppf "SAT"
      | Sat.Unsat -> Fmt.string ppf "UNSAT"
      | Sat.Unknown -> Fmt.string ppf "UNKNOWN")
    ( = )

let sat_tests =
  [
    Alcotest.test_case "empty formula is SAT" `Quick (fun () ->
        let s = Sat.create () in
        Alcotest.check sat_result "sat" Sat.Sat (Sat.solve s));
    Alcotest.test_case "unit clauses propagate" `Quick (fun () ->
        let s = Sat.create () in
        let a = Sat.new_var s and b = Sat.new_var s in
        Sat.add_clause s [ lit a ];
        Sat.add_clause s [ nlit a; lit b ];
        Alcotest.check sat_result "sat" Sat.Sat (Sat.solve s);
        Alcotest.(check bool) "a true" true (Sat.model_value s a);
        Alcotest.(check bool) "b true" true (Sat.model_value s b));
    Alcotest.test_case "contradiction is UNSAT" `Quick (fun () ->
        let s = Sat.create () in
        let a = Sat.new_var s in
        Sat.add_clause s [ lit a ];
        Sat.add_clause s [ nlit a ];
        Alcotest.check sat_result "unsat" Sat.Unsat (Sat.solve s));
    Alcotest.test_case "xor chain forces conflict-driven search" `Quick (fun () ->
        (* a xor b, b xor c, a xor c is unsatisfiable as parity constraints
           with odd total parity *)
        let s = Sat.create () in
        let a = Sat.new_var s and b = Sat.new_var s and c = Sat.new_var s in
        let xor_true x y =
          Sat.add_clause s [ lit x; lit y ];
          Sat.add_clause s [ nlit x; nlit y ]
        in
        xor_true a b;
        xor_true b c;
        xor_true a c;
        Alcotest.check sat_result "unsat" Sat.Unsat (Sat.solve s));
    Alcotest.test_case "pigeonhole PHP(4,3) is UNSAT" `Quick (fun () ->
        (* 4 pigeons in 3 holes; classic resolution-hard family at scale *)
        let s = Sat.create () in
        let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Sat.new_var s)) in
        for p = 0 to 3 do
          Sat.add_clause s (List.init 3 (fun h -> lit v.(p).(h)))
        done;
        for h = 0 to 2 do
          for p1 = 0 to 3 do
            for p2 = p1 + 1 to 3 do
              Sat.add_clause s [ nlit v.(p1).(h); nlit v.(p2).(h) ]
            done
          done
        done;
        Alcotest.check sat_result "unsat" Sat.Unsat (Sat.solve s));
    Alcotest.test_case "pigeonhole PHP(5,5) is SAT" `Quick (fun () ->
        let s = Sat.create () in
        let v = Array.init 5 (fun _ -> Array.init 5 (fun _ -> Sat.new_var s)) in
        for p = 0 to 4 do
          Sat.add_clause s (List.init 5 (fun h -> lit v.(p).(h)))
        done;
        for h = 0 to 4 do
          for p1 = 0 to 4 do
            for p2 = p1 + 1 to 4 do
              Sat.add_clause s [ nlit v.(p1).(h); nlit v.(p2).(h) ]
            done
          done
        done;
        Alcotest.check sat_result "sat" Sat.Sat (Sat.solve s));
    Alcotest.test_case "conflict budget yields Unknown" `Quick (fun () ->
        (* PHP(7,6) with a budget of 1 conflict *)
        let s = Sat.create () in
        let v = Array.init 7 (fun _ -> Array.init 6 (fun _ -> Sat.new_var s)) in
        for p = 0 to 6 do
          Sat.add_clause s (List.init 6 (fun h -> lit v.(p).(h)))
        done;
        for h = 0 to 5 do
          for p1 = 0 to 6 do
            for p2 = p1 + 1 to 6 do
              Sat.add_clause s [ nlit v.(p1).(h); nlit v.(p2).(h) ]
            done
          done
        done;
        Alcotest.check sat_result "unknown" Sat.Unknown (Sat.solve ~max_conflicts:1 s));
  ]

(* Random 3-CNF solved by the CDCL solver and checked against brute force. *)
let gen_cnf =
  QCheck2.Gen.(
    let* nvars = int_range 3 8 in
    let* nclauses = int_range 3 30 in
    let* clauses =
      list_size (return nclauses)
        (list_size (return 3)
           (let* v = int_bound (nvars - 1) in
            let* sign = bool in
            return (v, sign)))
    in
    return (nvars, clauses))

let brute_force nvars clauses =
  let rec go assignment v =
    if v = nvars then
      List.for_all
        (fun clause -> List.exists (fun (x, sign) -> List.nth assignment x = sign) clause)
        clauses
    else go (assignment @ [ true ]) (v + 1) || go (assignment @ [ false ]) (v + 1)
  in
  go [] 0

let sat_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"CDCL agrees with brute force on random 3-CNF" gen_cnf
       (fun (nvars, clauses) ->
         let s = Sat.create () in
         let vars = Array.init nvars (fun _ -> Sat.new_var s) in
         List.iter
           (fun clause ->
             Sat.add_clause s
               (List.map (fun (v, sign) -> Sat.lit_of_var ~sign vars.(v)) clause))
           clauses;
         let expected = brute_force nvars clauses in
         match Sat.solve s with
         | Sat.Sat ->
           expected
           && List.for_all
                (fun clause ->
                  List.exists (fun (v, sign) -> Sat.model_value s vars.(v) = sign) clause)
                clauses
         | Sat.Unsat -> not expected
         | Sat.Unknown -> false))

(* Differential testing of the bit-blaster against concrete evaluation. *)
let all_ops =
  Expr.[ Add; Sub; Mul; UDiv; URem; SDiv; SRem; Shl; LShr; AShr; And; Or; Xor ]

let gen_term =
  QCheck2.Gen.(
    let* w = oneofl [ 1; 5; 8; 16; 32; 64 ] in
    let* env = array_size (return 3) (map Int64.of_int int) in
    let rec term depth =
      if depth = 0 then
        let* pick = int_bound 3 in
        if pick = 0 then map (Expr.bv_const w) (map Int64.of_int int)
        else return (Expr.bv_var (Fmt.str "x%d" (pick - 1)) w)
      else
        let* a = term (depth - 1) in
        let* b = term (depth - 1) in
        let* op = oneofl all_ops in
        return (Expr.bin op a b)
    in
    let* t = term 3 in
    return (w, env, t))

let env_fn env name =
  match name with
  | "x0" -> env.(0)
  | "x1" -> env.(1)
  | "x2" -> env.(2)
  | _ -> 0L

let bitblast_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"bit-blast agrees with concrete evaluation" gen_term
       (fun (w, env, t) ->
         let expected = Solver.eval_bv (env_fn env) (fun _ -> false) t in
         let pin i =
           Expr.eq (Expr.bv_var (Fmt.str "x%d" i) w) (Expr.bv_const w env.(i))
         in
         (* t != expected under the pinned env must be UNSAT *)
         match
           Solver.check
             (Expr.not_ (Expr.eq t (Expr.bv_const w expected)) :: List.init 3 pin)
         with
         | Solver.Unsat -> true
         | Solver.Sat _ | Solver.Unknown -> false))

let model_soundness_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"SAT models satisfy the formula" gen_term
       (fun (w, _, t) ->
         let goal = Expr.bv_const w 42L in
         match Solver.check [ Expr.eq t goal ] with
         | Solver.Unsat | Solver.Unknown -> true
         | Solver.Sat m ->
           let env name = match m.Solver.bv_value name with Some (_, v) -> v | None -> 0L in
           Solver.eval_bv env (fun _ -> false) t = Veriopt_ir.Bits.mask w 42L))

(* ------------------------------------------------------------------ *)
(* End-to-end bit-vector fuzz: >= 1000 seeded round-trip cases (concrete
   evaluation vs bit-blast + solve), plus the nsw/nuw/exact poison
   predicates the Alive encoder builds, cross-checked against Bits'
   concrete overflow predicates — the single source of truth both the
   interpreter and the encoder claim to mirror.  VERIOPT_FUZZ_N cranks the
   counts along with the SAT fuzzer's. *)

module Bits = Veriopt_ir.Bits

let bv_fuzz_n =
  match Sys.getenv_opt "VERIOPT_FUZZ_N" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> max 1_000 (n / 5) | _ -> 1_000)
  | None -> 1_000

(* Like [gen_term] but biased toward small widths and shallow terms so a
   thousand cases bit-blast in seconds; occasional wide terms keep the
   64-bit carry chains honest. *)
let gen_term_small =
  QCheck2.Gen.(
    let* w = frequency [ (9, oneofl [ 1; 2; 3; 4; 5; 6; 7; 8 ]); (1, oneofl [ 16; 32; 64 ]) ]
    in
    let* env = array_size (return 3) (map Int64.of_int int) in
    let* depth = int_range 1 2 in
    let rec term depth =
      if depth = 0 then
        let* pick = int_bound 3 in
        if pick = 0 then map (Expr.bv_const w) (map Int64.of_int int)
        else return (Expr.bv_var (Fmt.str "x%d" (pick - 1)) w)
      else
        let* a = term (depth - 1) in
        let* b = term (depth - 1) in
        let* op = oneofl all_ops in
        return (Expr.bin op a b)
    in
    let* t = term depth in
    return (w, env, t))

let bitblast_roundtrip_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:bv_fuzz_n
       ~name:(Fmt.str "bit-vector round-trip fuzz, %d cases (VERIOPT_FUZZ_N)" bv_fuzz_n)
       gen_term_small
       (fun (w, env, t) ->
         let expected = Solver.eval_bv (env_fn env) (fun _ -> false) t in
         let pin i = Expr.eq (Expr.bv_var (Fmt.str "x%d" i) w) (Expr.bv_const w env.(i)) in
         match
           Solver.check (Expr.not_ (Expr.eq t (Expr.bv_const w expected)) :: List.init 3 pin)
         with
         | Solver.Unsat -> true
         | Solver.Sat _ | Solver.Unknown -> false))

(* The poison paths used by Alive: each case mirrors the exact term the
   encoder builds for the flag (encode.ml) and the exact concrete predicate
   the interpreter uses (Bits). *)
type poison_case =
  | Add_nsw
  | Add_nuw
  | Sub_nsw
  | Sub_nuw
  | Mul_nsw
  | Mul_nuw
  | Shl_nuw
  | Shl_nsw
  | Udiv_exact
  | Sdiv_exact
  | Lshr_exact
  | Ashr_exact

let poison_cases =
  [
    Add_nsw; Add_nuw; Sub_nsw; Sub_nuw; Mul_nsw; Mul_nuw; Shl_nuw; Shl_nsw; Udiv_exact;
    Sdiv_exact; Lshr_exact; Ashr_exact;
  ]

let poison_term case w at bt =
  let r op = Expr.bin op at bt in
  let zero = Expr.bv_const w 0L in
  let ones = Expr.bv_const w (Bits.all_ones w) in
  let minv = Expr.bv_const w (Bits.min_signed w) in
  match case with
  | Add_nsw ->
    let rt = r Expr.Add in
    Expr.or_
      (Expr.conj [ Expr.sge at zero; Expr.sge bt zero; Expr.slt rt zero ])
      (Expr.conj [ Expr.slt at zero; Expr.slt bt zero; Expr.sge rt zero ])
  | Add_nuw -> Expr.ult (r Expr.Add) at
  | Sub_nsw ->
    let rt = r Expr.Sub in
    Expr.or_
      (Expr.conj [ Expr.sge at zero; Expr.slt bt zero; Expr.slt rt zero ])
      (Expr.conj [ Expr.slt at zero; Expr.sge bt zero; Expr.sge rt zero ])
  | Sub_nuw -> Expr.ult at bt
  | Mul_nuw ->
    Expr.and_ (Expr.not_ (Expr.eq at zero)) (Expr.ugt bt (Expr.bin Expr.UDiv ones at))
  | Mul_nsw ->
    let rt = r Expr.Mul in
    Expr.and_
      (Expr.not_ (Expr.eq bt zero))
      (Expr.or_
         (Expr.not_ (Expr.eq (Expr.bin Expr.SDiv rt bt) at))
         (Expr.and_ (Expr.eq at minv) (Expr.eq bt ones)))
  | Shl_nuw -> Expr.not_ (Expr.eq (Expr.bin Expr.LShr (r Expr.Shl) bt) at)
  | Shl_nsw -> Expr.not_ (Expr.eq (Expr.bin Expr.AShr (r Expr.Shl) bt) at)
  | Udiv_exact -> Expr.not_ (Expr.eq (r Expr.URem) zero)
  | Sdiv_exact -> Expr.not_ (Expr.eq (r Expr.SRem) zero)
  | Lshr_exact -> Expr.not_ (Expr.eq (Expr.bin Expr.Shl (r Expr.LShr) bt) at)
  | Ashr_exact -> Expr.not_ (Expr.eq (Expr.bin Expr.Shl (r Expr.AShr) bt) at)

let poison_concrete case w a b =
  match case with
  | Add_nsw -> Bits.add_nsw_overflow w a b
  | Add_nuw -> Bits.add_nuw_overflow w a b
  | Sub_nsw -> Bits.sub_nsw_overflow w a b
  | Sub_nuw -> Bits.sub_nuw_overflow w a b
  | Mul_nsw -> Bits.mul_nsw_overflow w a b
  | Mul_nuw -> Bits.mul_nuw_overflow w a b
  | Shl_nuw -> Bits.shl_nuw_overflow w a b
  | Shl_nsw -> Bits.shl_nsw_overflow w a b
  | Udiv_exact -> Bits.udiv_exact_violation w a b
  | Sdiv_exact -> Bits.sdiv_exact_violation w a b
  | Lshr_exact -> Bits.lshr_exact_violation w a b
  | Ashr_exact -> Bits.ashr_exact_violation w a b

let gen_poison =
  QCheck2.Gen.(
    let* w = oneofl [ 1; 2; 3; 4; 5; 6; 7; 8; 12; 16 ] in
    let* case = oneofl poison_cases in
    let* a0 = map Int64.of_int int in
    let* b0 = map Int64.of_int int in
    let a = Bits.mask w a0 and b = Bits.mask w b0 in
    (* mirror the UB/poison guards the encoder emits before the flag
       predicate matters: in-range shift amounts, nonzero divisors, and no
       min/-1 signed-division overflow *)
    let b =
      match case with
      | Shl_nuw | Shl_nsw | Lshr_exact | Ashr_exact -> Int64.rem b (Int64.of_int w)
      | Udiv_exact | Sdiv_exact -> if b = 0L then 1L else b
      | _ -> b
    in
    let a =
      match case with
      | Sdiv_exact when a = Bits.min_signed w && b = Bits.all_ones w -> 0L
      | _ -> a
    in
    return (case, w, a, b))

let poison_paths_fuzz =
  let n = max 600 (bv_fuzz_n / 2) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:n
       ~name:(Fmt.str "nsw/nuw/exact poison predicates vs Bits, %d cases" n)
       gen_poison
       (fun (case, w, a, b) ->
         let at = Expr.bv_var "pa" w and bt = Expr.bv_var "pb" w in
         let p = poison_term case w at bt in
         let expected = poison_concrete case w a b in
         let env name = if name = "pa" then a else if name = "pb" then b else 0L in
         (* the term evaluator agrees with Bits *)
         Solver.eval_bool env (fun _ -> false) p = expected
         &&
         (* and so does the bit-blasted circuit: the disagreeing formula is
            UNSAT under the pinned inputs *)
         match
           Solver.check
             [
               (if expected then Expr.not_ p else p);
               Expr.eq at (Expr.bv_const w a);
               Expr.eq bt (Expr.bv_const w b);
             ]
         with
         | Solver.Unsat -> true
         | Solver.Sat _ | Solver.Unknown -> false))

let expr_tests =
  [
    Alcotest.test_case "constant folding in smart constructors" `Quick (fun () ->
        let a = Expr.bv_const 8 200L and b = Expr.bv_const 8 100L in
        Alcotest.(check (option int64)) "fold add" (Some 44L) (Expr.const_value (Expr.bin Expr.Add a b));
        Alcotest.(check (option int64))
          "fold udiv by zero = all ones" (Some 255L)
          (Expr.const_value (Expr.bin Expr.UDiv a (Expr.bv_const 8 0L))));
    Alcotest.test_case "identity simplifications" `Quick (fun () ->
        let x = Expr.bv_var "x" 8 in
        Alcotest.(check bool) "x+0 = x" true (Expr.bin Expr.Add x (Expr.bv_const 8 0L) == x);
        Alcotest.(check bool) "x&x = x" true (Expr.bin Expr.And x x == x);
        Alcotest.(check bool)
          "x^x = 0" true
          (Expr.const_value (Expr.bin Expr.Xor x x) = Some 0L));
    Alcotest.test_case "hash-consing shares structure" `Quick (fun () ->
        let x = Expr.bv_var "hc" 16 in
        let t1 = Expr.bin Expr.Add x (Expr.bv_const 16 3L) in
        let t2 = Expr.bin Expr.Add x (Expr.bv_const 16 3L) in
        Alcotest.(check bool) "physically equal" true (t1 == t2));
    Alcotest.test_case "boolean simplifications" `Quick (fun () ->
        let p = Expr.bool_var "p" in
        Alcotest.(check bool) "not not p" true (Expr.not_ (Expr.not_ p) == p);
        Alcotest.(check bool) "p and not p" true (Expr.and_ p (Expr.not_ p) == Expr.ff);
        Alcotest.(check bool) "p or not p" true (Expr.or_ p (Expr.not_ p) == Expr.tt));
    Alcotest.test_case "valid recognizes a tautology" `Quick (fun () ->
        let x = Expr.bv_var "vx" 8 in
        (* (x & 0) = 0 is valid *)
        match Solver.valid (Expr.eq (Expr.bin Expr.And x (Expr.bv_const 8 0L)) (Expr.bv_const 8 0L)) with
        | Solver.Unsat -> ()
        | _ -> Alcotest.fail "expected validity");
    Alcotest.test_case "valid finds a counterexample" `Quick (fun () ->
        let x = Expr.bv_var "cx" 8 in
        (* x = 0 is not valid *)
        match Solver.valid (Expr.eq x (Expr.bv_const 8 0L)) with
        | Solver.Sat m -> (
          match m.Solver.bv_value "cx" with
          | Some (_, v) -> Alcotest.(check bool) "nonzero witness" true (v <> 0L)
          | None -> Alcotest.fail "no witness")
        | _ -> Alcotest.fail "expected counterexample");
  ]

(* ------------------------------------------------------------------ *)
(* Structural hashing before search: commuted operands are one term, and
   the bit-blaster emits each structurally distinct gate once. *)

let op_name op = Expr.to_string (Expr.bin op (Expr.bv_var "a" 4) (Expr.bv_var "b" 4))

let hashing_tests =
  [
    Alcotest.test_case "commuted operands of add/mul/and/or/xor are one term" `Quick (fun () ->
        let x = Expr.bv_var "ox" 8 and y = Expr.bv_var "oy" 8 in
        List.iter
          (fun op ->
            Alcotest.(check bool) (op_name op ^ " commutes physically") true
              (Expr.bin op x y == Expr.bin op y x))
          Expr.[ Add; Mul; And; Or; Xor ];
        List.iter
          (fun op ->
            Alcotest.(check bool) (op_name op ^ " keeps its operand order") false
              (Expr.bin op x y == Expr.bin op y x))
          Expr.[ Sub; Shl; UDiv ]);
    Alcotest.test_case "an identical AND/XOR/ITE gate adds no SAT variable" `Quick (fun () ->
        let ctx = Bitblast.create () in
        let input name = Bitblast.blast_bool ctx (Expr.bool_var name) in
        let a = input "ga" and b = input "gb" and c = input "gc" in
        let nvars () = Sat.num_vars (Bitblast.sat ctx) in
        List.iter
          (fun (name, first, again) ->
            let o = first () in
            let n = nvars () in
            Alcotest.(check int) (name ^ ": same output") o (again ());
            Alcotest.(check int) (name ^ ": no new variable") n (nvars ()))
          [
            ("and", (fun () -> Bitblast.g_and ctx a b), fun () -> Bitblast.g_and ctx b a);
            ("xor", (fun () -> Bitblast.g_xor ctx a b), fun () -> Bitblast.g_xor ctx b a);
            ( "ite",
              (fun () -> Bitblast.g_ite ctx c a b),
              fun () -> Bitblast.g_ite ctx (Sat.lit_neg c) b a );
          ]);
    Alcotest.test_case "xor of a negated input is the negated xor" `Quick (fun () ->
        let ctx = Bitblast.create () in
        let input name = Bitblast.blast_bool ctx (Expr.bool_var name) in
        let a = input "xa" and b = input "xb" in
        let o = Bitblast.g_xor ctx a b in
        let n = Sat.num_vars (Bitblast.sat ctx) in
        Alcotest.(check int) "xor (not a) b" (Sat.lit_neg o) (Bitblast.g_xor ctx (Sat.lit_neg a) b);
        Alcotest.(check int) "xor a (not b)" (Sat.lit_neg o) (Bitblast.g_xor ctx a (Sat.lit_neg b));
        Alcotest.(check int) "xor (not a) (not b)" o
          (Bitblast.g_xor ctx (Sat.lit_neg a) (Sat.lit_neg b));
        Alcotest.(check int) "no new variable" n (Sat.num_vars (Bitblast.sat ctx)));
    Alcotest.test_case "distinct terms with one circuit share its gates" `Quick (fun () ->
        (* xor (not p) q is a different term from not (xor p q), but the
           same gate up to polarity *)
        let ctx = Bitblast.create () in
        let p = Expr.bool_var "sp" and q = Expr.bool_var "sq" in
        let o = Bitblast.blast_bool ctx (Expr.xor_ p q) in
        let n = Sat.num_vars (Bitblast.sat ctx) in
        Alcotest.(check int) "negated output" (Sat.lit_neg o)
          (Bitblast.blast_bool ctx (Expr.xor_ (Expr.not_ p) q));
        Alcotest.(check int) "no new variable" n (Sat.num_vars (Bitblast.sat ctx)));
  ]

(* Differential check of the whole pre-search layer: for random term pairs
   at widths 1-4 over three inputs, the solver's verdict on [t1 <> t2]
   agrees with exhaustive evaluation over every input.  The pairs are
   plain trees, evaluated through per-width tables of the constant folder,
   so a simplification or ordering bug in the term layer cannot hide by
   turning both sides into one term.  The second tree is a commuted copy
   of the first, a copy with leaves replaced, or a fresh tree, so equal,
   near-equal and unrelated pairs all occur.  Runs VERIOPT_FUZZ_N pairs
   (500 by default). *)

let exhaustive_n =
  match Option.bind (Sys.getenv_opt "VERIOPT_FUZZ_N") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 500

type tree =
  | Var of int  (** input x0..x2 *)
  | Const of int
  | Bin of int * tree * tree  (** index into [ops] *)
  | Ite_ult of tree * tree * tree * tree  (** ult a b ? c : d *)

let ops = Array.of_list all_ops

(* [fold_table.(w).(k).((x lsl w) lor y)]: [ops.(k)] on constants x, y *)
let fold_table =
  lazy
    (Array.init 5 (fun w ->
         Array.map
           (fun op ->
             Array.init
               (1 lsl (2 * w))
               (fun i ->
                 let c v = Expr.bv_const w (Int64.of_int v) in
                 let x = i lsr w and y = i land ((1 lsl w) - 1) in
                 match Expr.const_value (Expr.bin op (c x) (c y)) with
                 | Some v -> Int64.to_int v
                 | None -> assert false))
           ops))

let rec eval_tree w table env = function
  | Var i -> env.(i)
  | Const c -> c
  | Bin (k, a, b) -> table.(k).((eval_tree w table env a lsl w) lor eval_tree w table env b)
  | Ite_ult (a, b, c, d) ->
    if eval_tree w table env a < eval_tree w table env b then eval_tree w table env c
    else eval_tree w table env d

let rec expr_of_tree w = function
  | Var i -> Expr.bv_var (Fmt.str "x%d" i) w
  | Const c -> Expr.bv_const w (Int64.of_int c)
  | Bin (k, a, b) -> Expr.bin ops.(k) (expr_of_tree w a) (expr_of_tree w b)
  | Ite_ult (a, b, c, d) ->
    Expr.bv_ite
      (Expr.ult (expr_of_tree w a) (expr_of_tree w b))
      (expr_of_tree w c) (expr_of_tree w d)

let gen_tree_pair =
  QCheck2.Gen.(
    let* w = int_range 1 4 in
    let leaf =
      let* pick = int_bound 3 in
      if pick = 0 then map (fun c -> Const c) (int_bound ((1 lsl w) - 1))
      else return (Var (pick - 1))
    in
    let rec tree depth =
      if depth = 0 then leaf
      else
        let* a = tree (depth - 1) in
        let* b = tree (depth - 1) in
        frequency
          [
            (4, map (fun k -> Bin (k, a, b)) (int_bound (Array.length ops - 1)));
            (1, map2 (fun c d -> Ite_ult (a, b, c, d)) (tree (depth - 1)) (tree (depth - 1)));
          ]
    in
    (* rebuild a tree bottom-up, swapping operands or replacing leaves at
       random *)
    let rec mutate ~swap ~replace = function
      | Bin (k, a, b) ->
        let* a = mutate ~swap ~replace a in
        let* b = mutate ~swap ~replace b in
        let* flip = if swap then bool else return false in
        return (if flip then Bin (k, b, a) else Bin (k, a, b))
      | Ite_ult (a, b, c, d) ->
        let* a = mutate ~swap ~replace a in
        let* b = mutate ~swap ~replace b in
        let* c = mutate ~swap ~replace c in
        let* d = mutate ~swap ~replace d in
        return (Ite_ult (a, b, c, d))
      | t ->
        let* r = if replace then int_bound 5 else return 1 in
        if r = 0 then leaf else return t
    in
    let* depth = int_range 1 3 in
    let* t1 = tree depth in
    let* t2 =
      frequency
        [
          (2, mutate ~swap:true ~replace:false t1);
          (2, mutate ~swap:false ~replace:true t1);
          (1, tree depth);
        ]
    in
    return (w, t1, t2))

exception Differs

let exhaustive_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:exhaustive_n
       ~name:
         (Fmt.str "verdict on t1 <> t2 agrees with exhaustive evaluation, %d pairs (VERIOPT_FUZZ_N)"
            exhaustive_n)
       gen_tree_pair
       (fun (w, t1, t2) ->
         let table = (Lazy.force fold_table).(w) in
         let differ env = eval_tree w table env t1 <> eval_tree w table env t2 in
         let size = 1 lsl w in
         let differs =
           try
             for i = 0 to (size * size * size) - 1 do
               if differ [| i mod size; i / size mod size; i / (size * size) |] then raise Differs
             done;
             false
           with Differs -> true
         in
         match
           Solver.check [ Expr.not_ (Expr.eq (expr_of_tree w t1) (expr_of_tree w t2)) ]
         with
         | Solver.Unsat -> not differs
         | Solver.Sat m ->
           let input i =
             match m.Solver.bv_value (Fmt.str "x%d" i) with
             | Some (_, v) -> Int64.to_int v
             | None -> 0
           in
           differs && differ (Array.init 3 input)
         | Solver.Unknown -> false))

let suite =
  ( "smt",
    sat_tests @ expr_tests
    @ [
        sat_property;
        bitblast_property;
        model_soundness_property;
        bitblast_roundtrip_fuzz;
        poison_paths_fuzz;
      ]
    @ hashing_tests @ [ exhaustive_property ] )
