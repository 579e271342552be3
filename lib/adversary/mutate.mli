(** Semantics-aware mutators over verification pairs.

    A mutation perturbs the {e verification problem} — association order,
    poison flags, bit widths, address chains, CFG shape, loop bounds —
    while keeping both sides well-formed IR.  [reassoc], [gep] and
    [selphi] are semantic no-ops (they stress the SAT search and encoder
    depth); [flags] and [loopbound] deliberately risk changing the pair's
    equivalence status (near-miss shapes); [widen] transforms both sides
    identically, doubling the bit-blasting load. *)

type pair = {
  a_m : Veriopt_ir.Ast.modul;
  a_src : Veriopt_ir.Ast.func;
  a_tgt : Veriopt_ir.Ast.func;
}

val families : string list
(** The six mutator family names, in the order {!apply} draws from. *)

val set_func : Veriopt_ir.Ast.modul -> Veriopt_ir.Ast.func -> Veriopt_ir.Ast.modul
(** Write a (possibly rewritten) function back into the module by name —
    the module text enters the engine's cache and store keys, so the two
    must stay in sync when the source side is mutated. *)

val valid : pair -> bool
(** Both functions pass the validator against the pair's module. *)

val apply : Random.State.t -> pair -> (string * pair) option
(** Draw one mutator family and apply it.  [None] when the family found no
    applicable site or the mutant failed validation — callers just retry
    with the next random draw. *)
