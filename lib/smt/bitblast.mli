(** Bit-blasting of {!Expr} terms to CNF over the {!Sat} solver: bitvectors
    become little-endian literal arrays; gates go through Tseitin.
    Arithmetic uses ripple-carry adders, a shift-add multiplier, barrel
    shifters and a restoring divider. *)

type ctx

val create : unit -> ctx

val sat : ctx -> Sat.t

(** {1 Gates}

    Each gate returns its output literal.  Constant and repeated inputs
    fold without a new variable; otherwise a gate structurally identical
    to one already emitted in this context (AND over an unordered pair,
    XOR up to input polarity, ITE up to condition polarity) returns that
    gate's output, and only a new gate adds a variable and its Tseitin
    clauses. *)

val g_and : ctx -> int -> int -> int
val g_xor : ctx -> int -> int -> int
val g_ite : ctx -> int -> int -> int -> int

val blast_bool : ctx -> Expr.t -> int
val blast_bv : ctx -> Expr.t -> int array

val assert_term : ctx -> Expr.t -> unit

val bv_model_value : ctx -> string -> (int * int64) option
val bool_model_value : ctx -> string -> bool option

val semantics_version : int
(** Bump when a change to the emitted CNF changes which queries a conflict
    budget decides; registered in the verdict store's semantics digest. *)
