(** Semantics-aware pair mutators for the adversarial miner.

    Each mutator takes a verification pair (module, src, tgt) and returns a
    structurally different pair that is still well-formed IR — the point is
    to perturb the {e verification problem}, not to produce garbage the
    parser would reject anyway.  Mutants that fail the validator are
    discarded by {!apply}, so downstream consumers only ever see pairs the
    engine will accept.

    Mutators that touch one side only (everything except [widen]) may
    change the pair's equivalence status — that is deliberate: flag
    toggles and loop-bound perturbations are exactly the near-miss shapes
    that separate a sound verifier from a lucky one. *)

open Veriopt_ir
open Ast

type pair = { a_m : Ast.modul; a_src : Ast.func; a_tgt : Ast.func }

let families = [ "reassoc"; "flags"; "widen"; "gep"; "selphi"; "loopbound" ]

(* ------------------------------------------------------------------ *)
(* Surgery helpers *)

(* Every (block, index, instr) site satisfying [pred], in program order. *)
let sites (f : func) pred =
  List.concat_map
    (fun b ->
      List.concat
        (List.mapi (fun i ni -> if pred ni then [ (b.label, i, ni) ] else []) b.instrs))
    f.blocks

let rewrite_at (f : func) ~block ~index g =
  Builder.map_blocks f (fun b ->
      if b.label = block then
        { b with instrs = List.mapi (fun i ni -> if i = index then g ni else ni) b.instrs }
      else b)

(* Replace the instruction at [index] with the list [g] makes of it. *)
let splice_at (f : func) ~block ~index g =
  Builder.map_blocks f (fun b ->
      if b.label = block then
        {
          b with
          instrs = List.concat (List.mapi (fun i ni -> if i = index then g ni else [ ni ]) b.instrs);
        }
      else b)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* The module text enters the engine's cache and store keys, so a mutated
   function must be written back into the module when it lives there. *)
let set_func (m : modul) (f : func) =
  { m with funcs = List.map (fun g -> if g.fname = f.fname then f else g) m.funcs }

(* ------------------------------------------------------------------ *)
(* reassoc: rewrite [(a op b) op c] into [a op (b op c)] for an associative
   commutative op (add, mul, and, or, xor).  The new inner op goes right
   before the outer one; both drop their flags, which only removes poison,
   so the target still refines the source.  Equivalence-preserving, and
   unlike an operand swap (commuted operands are one hash-consed term) it
   hands the SAT search a different circuit. *)

let reassoc rng p =
  let f = p.a_tgt in
  let defs = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun ni ->
          match (ni.name, ni.instr) with
          | Some v, (Binop _ as i) -> Hashtbl.replace defs v i
          | _ -> ())
        b.instrs)
    f.blocks;
  (* the operands of an inner op with the same op and type *)
  let inner op ty = function
    | Var v -> (
      match Hashtbl.find_opt defs v with
      | Some (Binop { op = op'; ty = ty'; lhs; rhs; _ }) when op' = op && ty' = ty ->
        Some (lhs, rhs)
      | _ -> None)
    | _ -> None
  in
  let split = function
    | Binop { op; ty; lhs; rhs; _ } when binop_is_commutative op -> (
      match inner op ty lhs with
      | Some (a, b) -> Some (op, ty, a, b, rhs)
      | None -> Option.map (fun (a, b) -> (op, ty, a, b, lhs)) (inner op ty rhs))
    | _ -> None
  in
  match sites f (fun ni -> split ni.instr <> None) with
  | [] -> None
  | cand ->
    let bl, i, ni0 = pick rng cand in
    let op, ty, a, b, c = Option.get (split ni0.instr) in
    let n = Builder.fresh (Builder.names_of_func f) "advr" in
    let bc = { name = Some n; instr = Binop { op; flags = no_flags; ty; lhs = b; rhs = c } } in
    let outer = { ni0 with instr = Binop { op; flags = no_flags; ty; lhs = a; rhs = Var n } } in
    Some { p with a_tgt = splice_at f ~block:bl ~index:i (fun _ -> [ bc; outer ]) }

(* ------------------------------------------------------------------ *)
(* flags: toggle nsw/nuw on add/sub/mul/shl or exact on the divisions and
   right shifts — the overflow-flag near-misses of Alive's rule table. *)

let flags rng p =
  let is_site ni =
    match ni.instr with
    | Binop { op = Add | Sub | Mul | Shl | UDiv | SDiv | LShr | AShr; _ } -> true
    | _ -> false
  in
  match sites p.a_tgt is_site with
  | [] -> None
  | cand ->
    let bl, i, _ = pick rng cand in
    let coin = Random.State.bool rng in
    let tgt =
      rewrite_at p.a_tgt ~block:bl ~index:i (fun ni ->
          match ni.instr with
          | Binop ({ op = Add | Sub | Mul | Shl; flags; _ } as b) ->
            let flags =
              if coin then { flags with nsw = not flags.nsw }
              else { flags with nuw = not flags.nuw }
            in
            { ni with instr = Binop { b with flags } }
          | Binop ({ op = UDiv | SDiv | LShr | AShr; flags; _ } as b) ->
            { ni with instr = Binop { b with flags = { flags with exact = not flags.exact } } }
          | _ -> ni)
    in
    Some { p with a_tgt = tgt }

(* ------------------------------------------------------------------ *)
(* widen: double every integer width (i1 stays i1) in BOTH functions.
   Only pure register functions qualify — memory widths are layout-bound —
   and only when every doubled width still fits in 64 bits.  The pair's
   equivalence status may change (wrapping moves), but well-formedness is
   preserved; the payoff is a bit-blasting problem twice the size. *)

let widen_ty = function Types.Int w when w > 1 -> Types.Int (2 * w) | t -> t

let widen_op = function
  | Const (CInt { width; value }) when width > 1 ->
    Const (CInt { width = 2 * width; value = Bits.mask (2 * width) (Bits.sext width (2 * width) value) })
  | Const (CUndef t) -> Const (CUndef (widen_ty t))
  | Const (CPoison t) -> Const (CPoison (widen_ty t))
  | o -> o

(* Widening a loop multiplies its concrete trip count by up to 2^w — the
   interpreter-backed oracle battery would pay that on every probe — so
   widen only fires on loop-free (DAG) control flow, where the bigger
   bit-blast is the whole cost. *)
let has_cycle (f : func) =
  let color : (label, [ `Gray | `Black ]) Hashtbl.t = Hashtbl.create 8 in
  let cyclic = ref false in
  let rec visit l =
    match Hashtbl.find_opt color l with
    | Some `Gray -> cyclic := true
    | Some `Black -> ()
    | None -> (
      match find_block f l with
      | None -> ()
      | Some b ->
        Hashtbl.replace color l `Gray;
        List.iter visit (successors b.term);
        Hashtbl.replace color l `Black)
  in
  (match f.blocks with [] -> () | b :: _ -> visit b.label);
  !cyclic

let func_widenable f =
  let ok_ty = function Types.Int w -> w = 1 || (w > 1 && 2 * w <= 64) | _ -> false in
  let ok_op = function
    | Const (CInt { width; _ }) -> width = 1 || 2 * width <= 64
    | Const (CUndef t) | Const (CPoison t) -> ok_ty t
    | Var _ -> true
    | Const CNull | Global _ -> false
  in
  let ok_instr ni =
    (match ni.instr with
    | Alloca _ | Load _ | Store _ | Gep _ | Call _ -> false
    | Binop { ty; _ } | Icmp { ty; _ } | Select { ty; _ } | Phi { ty; _ } | Freeze { ty; _ } ->
      ok_ty ty
    | Cast { op = Trunc | ZExt | SExt; src_ty; dst_ty; _ } -> ok_ty src_ty && ok_ty dst_ty
    | Cast _ -> false)
    && List.for_all ok_op (operands_of_instr ni.instr)
  in
  let ok_term t =
    (match t with
    | Ret None | Br _ | Unreachable | CondBr _ -> true
    | Ret (Some (ty, _)) -> ok_ty ty
    | Switch { ty; _ } -> ok_ty ty)
    && List.for_all ok_op (operands_of_terminator t)
  in
  (not (has_cycle f))
  && List.for_all (fun (t, _) -> ok_ty t) f.params
  && (f.ret_ty = Types.Void || ok_ty f.ret_ty)
  && List.for_all (fun b -> List.for_all ok_instr b.instrs && ok_term b.term) f.blocks

let widen_func f =
  let widen_instr i =
    let i =
      match i with
      | Binop b -> Binop { b with ty = widen_ty b.ty }
      | Icmp ic -> Icmp { ic with ty = widen_ty ic.ty }
      | Select s -> Select { s with ty = widen_ty s.ty }
      | Cast c -> Cast { c with src_ty = widen_ty c.src_ty; dst_ty = widen_ty c.dst_ty }
      | Phi ph -> Phi { ph with ty = widen_ty ph.ty }
      | Freeze fr -> Freeze { fr with ty = widen_ty fr.ty }
      | other -> other
    in
    map_instr_operands widen_op i
  in
  let widen_term = function
    | Ret (Some (t, v)) -> Ret (Some (widen_ty t, widen_op v))
    | CondBr c -> CondBr { c with cond = widen_op c.cond }
    | Switch ({ ty = Types.Int w; _ } as s) when w > 1 ->
      Switch
        {
          s with
          ty = Types.Int (2 * w);
          value = widen_op s.value;
          cases = List.map (fun (v, l) -> (Bits.mask (2 * w) (Bits.sext w (2 * w) v), l)) s.cases;
        }
    | t -> map_terminator_operands widen_op t
  in
  {
    f with
    ret_ty = widen_ty f.ret_ty;
    params = List.map (fun (t, v) -> (widen_ty t, v)) f.params;
    blocks =
      List.map
        (fun b ->
          {
            b with
            instrs = List.map (fun ni -> { ni with instr = widen_instr ni.instr }) b.instrs;
            term = widen_term b.term;
          })
        f.blocks;
  }

let widen _rng p =
  if func_widenable p.a_src && func_widenable p.a_tgt then begin
    let src = widen_func p.a_src and tgt = widen_func p.a_tgt in
    Some { a_m = set_func p.a_m src; a_src = src; a_tgt = tgt }
  end
  else None

(* ------------------------------------------------------------------ *)
(* gep: deepen an address chain by routing a memory operation's pointer
   through a fresh zero-offset gep.  A semantic no-op that lengthens the
   pointer-arithmetic chain the encoder must reason through. *)

let gep rng p =
  let f = p.a_tgt in
  let is_site ni = match ni.instr with Load _ | Store _ | Gep _ -> true | _ -> false in
  match sites f is_site with
  | [] -> None
  | cand ->
    let bl, i, ni0 = pick rng cand in
    let ptr0 =
      match ni0.instr with
      | Load { ptr; _ } | Store { ptr; _ } | Gep { ptr; _ } -> ptr
      | _ -> assert false
    in
    let names = Builder.names_of_func f in
    let g = Builder.fresh names "advg" in
    let zgep =
      {
        name = Some g;
        instr =
          Gep
            {
              base_ty = Types.Int 8;
              ptr = ptr0;
              indices = [ (Types.i64, const_int 64 0L) ];
              inbounds = false;
            };
      }
    in
    let set_ptr = function
      | Load l -> Load { l with ptr = Var g }
      | Store s -> Store { s with ptr = Var g }
      | Gep gg -> Gep { gg with ptr = Var g }
      | other -> other
    in
    let tgt =
      splice_at f ~block:bl ~index:i (fun nj -> [ zgep; { nj with instr = set_ptr nj.instr } ])
    in
    Some { p with a_tgt = tgt }

(* ------------------------------------------------------------------ *)
(* selphi: inject an identity select over a defined value (icmp eq v v;
   select c, v, v — instcombine-foldable, verifier-visible), or thread an
   unconditional edge through a fresh trampoline block, renaming the phi
   incomings of the target.  Both are semantic no-ops that grow the CFG
   and value graph the refinement encoder walks. *)

let inject_select rng p =
  let f = p.a_tgt in
  let is_site ni =
    match (ni.name, ni.instr) with
    | Some _, Phi _ -> false (* inserting after a phi could break the phis-first block prefix *)
    | Some _, i -> ( match instr_result_type i with Some (Types.Int _) -> true | _ -> false)
    | None, _ -> false
  in
  match sites f is_site with
  | [] -> None
  | cand ->
    let bl, i, ni0 = pick rng cand in
    let v = Option.get ni0.name in
    let ty = match instr_result_type ni0.instr with Some t -> t | None -> assert false in
    let names = Builder.names_of_func f in
    let c = Builder.fresh names "advc" in
    let s = Builder.fresh names "advs" in
    (* route all uses of %v through the select first, then insert the
       identity chain (which itself uses %v) after the definition *)
    let f = Builder.substitute_operand f ~from:v ~to_:(Var s) in
    let news =
      [
        { name = Some c; instr = Icmp { pred = Eq; ty; lhs = Var v; rhs = Var v } };
        { name = Some s; instr = Select { ty; cond = Var c; if_true = Var v; if_false = Var v } };
      ]
    in
    Some { p with a_tgt = splice_at f ~block:bl ~index:i (fun ni -> ni :: news) }

let phi_trampoline rng p =
  let f = p.a_tgt in
  let cand =
    List.filter_map (fun b -> match b.term with Br l -> Some (b.label, l) | _ -> None) f.blocks
  in
  match cand with
  | [] -> None
  | _ ->
    let bfrom, lto = pick rng cand in
    let names = Builder.names_of_func f in
    let t = Builder.fresh names "advt" in
    let blocks =
      List.map
        (fun b ->
          let b = if b.label = bfrom then { b with term = Br t } else b in
          if b.label = lto then
            {
              b with
              instrs =
                List.map
                  (fun ni ->
                    match ni.instr with
                    | Phi ph ->
                      {
                        ni with
                        instr =
                          Phi
                            {
                              ph with
                              incoming =
                                List.map
                                  (fun (o, l) -> (o, if l = bfrom then t else l))
                                  ph.incoming;
                            };
                      }
                    | _ -> ni)
                  b.instrs;
            }
          else b)
        f.blocks
    in
    let tramp = { label = t; instrs = []; term = Br lto } in
    Some { p with a_tgt = { f with blocks = blocks @ [ tramp ] } }

let selphi rng p =
  if Random.State.bool rng then
    match inject_select rng p with None -> phi_trampoline rng p | some -> some
  else match phi_trampoline rng p with None -> inject_select rng p | some -> some

(* ------------------------------------------------------------------ *)
(* loopbound: bump a constant icmp operand by one — off-by-one loop bounds
   and threshold near-misses, the classic "almost equivalent" shape. *)

let loopbound rng p =
  let f = p.a_tgt in
  let is_site ni = match ni.instr with Icmp { rhs = Const (CInt _); _ } -> true | _ -> false in
  match sites f is_site with
  | [] -> None
  | cand ->
    let bl, i, _ = pick rng cand in
    let delta = if Random.State.bool rng then 1L else -1L in
    let tgt =
      rewrite_at f ~block:bl ~index:i (fun ni ->
          match ni.instr with
          | Icmp ({ rhs = Const (CInt { width; value }); _ } as ic) ->
            {
              ni with
              instr =
                Icmp
                  { ic with rhs = Const (CInt { width; value = Bits.mask width (Int64.add value delta) }) };
            }
          | _ -> ni)
    in
    Some { p with a_tgt = tgt }

(* ------------------------------------------------------------------ *)

let mutators : (string * (Random.State.t -> pair -> pair option)) array =
  [|
    ("reassoc", reassoc);
    ("flags", flags);
    ("widen", widen);
    ("gep", gep);
    ("selphi", selphi);
    ("loopbound", loopbound);
  |]

let valid p =
  let ok f = match Validator.validate_func ~module_:p.a_m f with Ok () -> true | Error _ -> false in
  ok p.a_src && ok p.a_tgt

let apply rng p =
  let k = Random.State.int rng (Array.length mutators) in
  let name, m = mutators.(k) in
  match m rng p with
  | None -> None
  | Some p' -> if valid p' then Some (name, p') else None
