(** Hash-consed SMT terms over booleans and fixed-width bitvectors (1..64).

    Smart constructors perform light constant folding and local
    simplification so the circuits handed to the bit-blaster stay small.
    Hash-consing gives each structurally distinct term a unique id, which the
    bit-blaster uses for memoization. *)

type sort = Bool | BV of int

type bv_binop =
  | Add
  | Sub
  | Mul
  | UDiv
  | URem
  | SDiv
  | SRem
  | Shl
  | LShr
  | AShr
  | And
  | Or
  | Xor

type t = { id : int; node : node; sort : sort }

and node =
  | True
  | False
  | BoolVar of string
  | Not of t
  | BAnd of t * t
  | BOr of t * t
  | BXor of t * t
  | BIte of t * t * t (* boolean-sorted ite *)
  | Eq of t * t (* over BV *)
  | Ult of t * t
  | Slt of t * t
  | BvConst of { width : int; value : int64 } (* canonical: masked *)
  | BvVar of { name : string; width : int }
  | BvBin of bv_binop * t * t
  | BvNot of t
  | BvNeg of t
  | BvIte of t * t * t
  | BvZext of int * t (* target width *)
  | BvSext of int * t
  | BvTrunc of int * t

(* Structural key for hash-consing: node with child ids. *)
module Key = struct
  type k =
    | KTrue
    | KFalse
    | KBoolVar of string
    | KNot of int
    | KBAnd of int * int
    | KBOr of int * int
    | KBXor of int * int
    | KBIte of int * int * int
    | KEq of int * int
    | KUlt of int * int
    | KSlt of int * int
    | KBvConst of int * int64
    | KBvVar of string * int
    | KBvBin of bv_binop * int * int
    | KBvNot of int
    | KBvNeg of int
    | KBvIte of int * int * int
    | KBvZext of int * int
    | KBvSext of int * int
    | KBvTrunc of int * int

  let of_node = function
    | True -> KTrue
    | False -> KFalse
    | BoolVar s -> KBoolVar s
    | Not a -> KNot a.id
    | BAnd (a, b) -> KBAnd (a.id, b.id)
    | BOr (a, b) -> KBOr (a.id, b.id)
    | BXor (a, b) -> KBXor (a.id, b.id)
    | BIte (c, a, b) -> KBIte (c.id, a.id, b.id)
    | Eq (a, b) -> KEq (a.id, b.id)
    | Ult (a, b) -> KUlt (a.id, b.id)
    | Slt (a, b) -> KSlt (a.id, b.id)
    | BvConst { width; value } -> KBvConst (width, value)
    | BvVar { name; width } -> KBvVar (name, width)
    | BvBin (op, a, b) -> KBvBin (op, a.id, b.id)
    | BvNot a -> KBvNot a.id
    | BvNeg a -> KBvNeg a.id
    | BvIte (c, a, b) -> KBvIte (c.id, a.id, b.id)
    | BvZext (w, a) -> KBvZext (w, a.id)
    | BvSext (w, a) -> KBvSext (w, a.id)
    | BvTrunc (w, a) -> KBvTrunc (w, a.id)
end

(* Hash-consing must stay correct when verification runs on several domains
   (the Par pool): the intern table is domain-local, so interning is
   lock-free, while ids come from one atomic counter so no two terms — even
   in different domains — ever share an id.  Cross-domain sharing is thereby
   lost (only [tt]/[ff] actually cross domains), which costs a little
   structural duplication but can never confuse id-based equality. *)
let table_key : (Key.k, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let next_id = Atomic.make 0

let intern sort node =
  let table = Domain.DLS.get table_key in
  let key = Key.of_node node in
  match Hashtbl.find_opt table key with
  | Some t -> t
  | None ->
    let t = { id = Atomic.fetch_and_add next_id 1; node; sort } in
    Hashtbl.add table key t;
    t

let width t = match t.sort with BV w -> w | Bool -> invalid_arg "Expr.width: boolean term"

(* ------------------------------------------------------------------ *)
(* Boolean constructors *)

let tt = intern Bool True
let ff = intern Bool False
let bool_var name = intern Bool (BoolVar name)
let of_bool b = if b then tt else ff

let not_ a =
  match a.node with
  | True -> ff
  | False -> tt
  | Not b -> b
  | _ -> intern Bool (Not a)

let and_ a b =
  match (a.node, b.node) with
  | True, _ -> b
  | _, True -> a
  | False, _ | _, False -> ff
  | _ when a.id = b.id -> a
  | Not x, _ when x.id = b.id -> ff
  | _, Not x when x.id = a.id -> ff
  | _ -> if a.id <= b.id then intern Bool (BAnd (a, b)) else intern Bool (BAnd (b, a))

let or_ a b =
  match (a.node, b.node) with
  | False, _ -> b
  | _, False -> a
  | True, _ | _, True -> tt
  | _ when a.id = b.id -> a
  | Not x, _ when x.id = b.id -> tt
  | _, Not x when x.id = a.id -> tt
  | _ -> if a.id <= b.id then intern Bool (BOr (a, b)) else intern Bool (BOr (b, a))

let xor_ a b =
  match (a.node, b.node) with
  | True, _ -> not_ b
  | _, True -> not_ a
  | False, _ -> b
  | _, False -> a
  | _ when a.id = b.id -> ff
  | _ -> if a.id <= b.id then intern Bool (BXor (a, b)) else intern Bool (BXor (b, a))

let implies a b = or_ (not_ a) b

let bool_ite c a b =
  match c.node with
  | True -> a
  | False -> b
  | _ -> if a.id = b.id then a else intern Bool (BIte (c, a, b))

let conj = List.fold_left and_ tt
let disj = List.fold_left or_ ff

(* ------------------------------------------------------------------ *)
(* Bitvector constructors *)

let bv_const width value =
  intern (BV width) (BvConst { width; value = Veriopt_ir.Bits.mask width value })

let bv_var name width = intern (BV width) (BvVar { name; width })

let const_value t = match t.node with BvConst { value; _ } -> Some value | _ -> None

let is_const_of t v = match t.node with BvConst { value; _ } -> value = v | _ -> false

let bin op a b =
  let w = width a in
  assert (width b = w);
  let open Veriopt_ir.Bits in
  match (const_value a, const_value b) with
  | Some x, Some y -> (
    match op with
    | Add -> bv_const w (add w x y)
    | Sub -> bv_const w (sub w x y)
    | Mul -> bv_const w (mul w x y)
    | UDiv -> bv_const w (if y = 0L then all_ones w else udiv w x y)
    | URem -> bv_const w (if y = 0L then x else urem w x y)
    | SDiv ->
      (* SMT-LIB semantics for the guarded-out cases *)
      bv_const w
        (if y = 0L then if slt w x 0L then 1L else all_ones w
         else if x = min_signed w && y = all_ones w then min_signed w
         else sdiv w x y)
    | SRem ->
      bv_const w
        (if y = 0L then x else if x = min_signed w && y = all_ones w then 0L else srem w x y)
    | Shl -> bv_const w (if shift_amount_poison w y then 0L else shl w x y)
    | LShr -> bv_const w (if shift_amount_poison w y then 0L else lshr w x y)
    | AShr ->
      bv_const w
        (if shift_amount_poison w y then if slt w x 0L then all_ones w else 0L else ashr w x y)
    | And -> bv_const w (logand w x y)
    | Or -> bv_const w (logor w x y)
    | Xor -> bv_const w (logxor w x y))
  | _ -> (
    (* light algebraic simplification *)
    match op with
    | Add when is_const_of b 0L -> a
    | Add when is_const_of a 0L -> b
    | Sub when is_const_of b 0L -> a
    | Sub when a.id = b.id -> bv_const w 0L
    | Mul when is_const_of b 1L -> a
    | Mul when is_const_of a 1L -> b
    | Mul when is_const_of a 0L || is_const_of b 0L -> bv_const w 0L
    | And when a.id = b.id -> a
    | And when is_const_of a 0L || is_const_of b 0L -> bv_const w 0L
    | And when is_const_of b (Veriopt_ir.Bits.all_ones w) -> a
    | And when is_const_of a (Veriopt_ir.Bits.all_ones w) -> b
    | Or when a.id = b.id -> a
    | Or when is_const_of b 0L -> a
    | Or when is_const_of a 0L -> b
    | Xor when a.id = b.id -> bv_const w 0L
    | Xor when is_const_of b 0L -> a
    | Xor when is_const_of a 0L -> b
    | Shl when is_const_of b 0L -> a
    | LShr when is_const_of b 0L -> a
    | AShr when is_const_of b 0L -> a
    (* commutative operands ordered by id, as in [and_]/[eq]: [x*y] and
       [y*x] are then one term *)
    | (Add | Mul | And | Or | Xor) when a.id > b.id -> intern (BV w) (BvBin (op, b, a))
    | _ -> intern (BV w) (BvBin (op, a, b)))

let bv_not a =
  match a.node with
  | BvConst { width = w; value } -> bv_const w (Veriopt_ir.Bits.lognot w value)
  | BvNot b -> b
  | _ -> intern a.sort (BvNot a)

let bv_neg a =
  match a.node with
  | BvConst { width = w; value } -> bv_const w (Veriopt_ir.Bits.neg w value)
  | BvNeg b -> b
  | _ -> intern a.sort (BvNeg a)

let eq a b =
  assert (width a = width b);
  if a.id = b.id then tt
  else
    match (const_value a, const_value b) with
    | Some x, Some y -> of_bool (x = y)
    | _ -> if a.id <= b.id then intern Bool (Eq (a, b)) else intern Bool (Eq (b, a))

let ult a b =
  match (const_value a, const_value b) with
  | Some x, Some y -> of_bool (Veriopt_ir.Bits.ult (width a) x y)
  | _ -> if a.id = b.id then ff else intern Bool (Ult (a, b))

let slt a b =
  match (const_value a, const_value b) with
  | Some x, Some y -> of_bool (Veriopt_ir.Bits.slt (width a) x y)
  | _ -> if a.id = b.id then ff else intern Bool (Slt (a, b))

let ule a b = not_ (ult b a)
let sle a b = not_ (slt b a)
let ugt a b = ult b a
let sgt a b = slt b a
let uge a b = ule b a
let sge a b = sle b a

let bv_ite c a b =
  assert (width a = width b);
  match c.node with
  | True -> a
  | False -> b
  | _ -> if a.id = b.id then a else intern a.sort (BvIte (c, a, b))

let zext w a =
  let aw = width a in
  if w = aw then a
  else (
    assert (w > aw);
    match const_value a with
    | Some v -> bv_const w (Veriopt_ir.Bits.zext aw w v)
    | None -> intern (BV w) (BvZext (w, a)))

let sext w a =
  let aw = width a in
  if w = aw then a
  else (
    assert (w > aw);
    match const_value a with
    | Some v -> bv_const w (Veriopt_ir.Bits.sext aw w v)
    | None -> intern (BV w) (BvSext (w, a)))

let trunc w a =
  let aw = width a in
  if w = aw then a
  else (
    assert (w < aw);
    match const_value a with
    | Some v -> bv_const w (Veriopt_ir.Bits.trunc aw w v)
    | None -> intern (BV w) (BvTrunc (w, a)))

(** i1 <-> Bool conversions (LLVM's i1 maps to our Bool at the edges). *)
let bool_to_bv1 c = bv_ite c (bv_const 1 1L) (bv_const 1 0L)

let bv1_to_bool t = eq t (bv_const 1 1L)

let rec pp ppf t =
  match t.node with
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | BoolVar s -> Fmt.string ppf s
  | Not a -> Fmt.pf ppf "(not %a)" pp a
  | BAnd (a, b) -> Fmt.pf ppf "(and %a %a)" pp a pp b
  | BOr (a, b) -> Fmt.pf ppf "(or %a %a)" pp a pp b
  | BXor (a, b) -> Fmt.pf ppf "(xor %a %a)" pp a pp b
  | BIte (c, a, b) | BvIte (c, a, b) -> Fmt.pf ppf "(ite %a %a %a)" pp c pp a pp b
  | Eq (a, b) -> Fmt.pf ppf "(= %a %a)" pp a pp b
  | Ult (a, b) -> Fmt.pf ppf "(bvult %a %a)" pp a pp b
  | Slt (a, b) -> Fmt.pf ppf "(bvslt %a %a)" pp a pp b
  | BvConst { width; value } -> Fmt.pf ppf "#x%Lx[%d]" value width
  | BvVar { name; _ } -> Fmt.string ppf name
  | BvBin (op, a, b) ->
    let s =
      match op with
      | Add -> "bvadd"
      | Sub -> "bvsub"
      | Mul -> "bvmul"
      | UDiv -> "bvudiv"
      | URem -> "bvurem"
      | SDiv -> "bvsdiv"
      | SRem -> "bvsrem"
      | Shl -> "bvshl"
      | LShr -> "bvlshr"
      | AShr -> "bvashr"
      | And -> "bvand"
      | Or -> "bvor"
      | Xor -> "bvxor"
    in
    Fmt.pf ppf "(%s %a %a)" s pp a pp b
  | BvNot a -> Fmt.pf ppf "(bvnot %a)" pp a
  | BvNeg a -> Fmt.pf ppf "(bvneg %a)" pp a
  | BvZext (w, a) -> Fmt.pf ppf "(zext[%d] %a)" w pp a
  | BvSext (w, a) -> Fmt.pf ppf "(sext[%d] %a)" w pp a
  | BvTrunc (w, a) -> Fmt.pf ppf "(trunc[%d] %a)" w pp a

let to_string t = Fmt.str "%a" pp t

(* Bump when a constructor's simplification changes which queries a
   conflict budget decides: budget-exhausted Inconclusive verdicts are
   stored, so the verdict store keys entry freshness on this. *)
let semantics_version = 1
