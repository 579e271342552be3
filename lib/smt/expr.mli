(** Hash-consed SMT terms over booleans and fixed-width bitvectors (1..64).

    Smart constructors constant-fold and apply local identities; structurally
    equal terms are physically equal (the bit-blaster memoizes on [id]). *)

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

type t = private { id : int; node : node; sort : sort }

and node =
  | True
  | False
  | BoolVar of string
  | Not of t
  | BAnd of t * t
  | BOr of t * t
  | BXor of t * t
  | BIte of t * t * t
  | Eq of t * t
  | Ult of t * t
  | Slt of t * t
  | BvConst of { width : int; value : int64 }
  | BvVar of { name : string; width : int }
  | BvBin of bv_binop * t * t
  | BvNot of t
  | BvNeg of t
  | BvIte of t * t * t
  | BvZext of int * t
  | BvSext of int * t
  | BvTrunc of int * t

val width : t -> int

(** {1 Booleans} *)

val tt : t
val ff : t
val bool_var : string -> t
val of_bool : bool -> t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor_ : t -> t -> t
val implies : t -> t -> t
val bool_ite : t -> t -> t -> t
val conj : t list -> t
val disj : t list -> t

(** {1 Bitvectors} *)

val bv_const : int -> int64 -> t
val bv_var : string -> int -> t
val const_value : t -> int64 option
val is_const_of : t -> int64 -> bool

val bin : bv_binop -> t -> t -> t
(** Division by zero follows SMT-LIB in constant folding; the IR encoder
    guards those cases with explicit UB conditions.  The operands of
    [Add], [Mul], [And], [Or] and [Xor] are stored ordered by id, so
    [bin op x y == bin op y x] for those five. *)

val bv_not : t -> t
val bv_neg : t -> t
val eq : t -> t -> t
val ult : t -> t -> t
val slt : t -> t -> t
val ule : t -> t -> t
val sle : t -> t -> t
val ugt : t -> t -> t
val sgt : t -> t -> t
val uge : t -> t -> t
val sge : t -> t -> t
val bv_ite : t -> t -> t -> t
val zext : int -> t -> t
val sext : int -> t -> t
val trunc : int -> t -> t

val bool_to_bv1 : t -> t
val bv1_to_bool : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val semantics_version : int
(** Bump when a change to the constructors' simplification changes which
    queries a conflict budget decides; registered in the verdict store's
    semantics digest. *)
