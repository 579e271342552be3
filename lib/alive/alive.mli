(** The translation validator's public verdict API.

    Verdicts use the paper's four categories (its Tables I/II).  A solver
    counterexample is re-executed in the concrete interpreter before
    committing to "semantic error": if concrete execution does not confirm
    the mismatch (an artifact of the encoding's approximations), the verdict
    degrades to "inconclusive", keeping counterexamples — and the training
    diagnostics built from them — trustworthy. *)

type category = Equivalent | Semantic_error | Syntax_error | Inconclusive

type verdict = {
  category : category;
  message : string;  (** Alive2-style diagnostic *)
  example : (string * int64) list;  (** counterexample inputs, when any *)
  bounded : bool;  (** loops were unrolled: bounded validation *)
  copy_of_input : bool;  (** target is alpha-equal to source *)
}

val signature_matches : Veriopt_ir.Ast.func -> Veriopt_ir.Ast.func -> bool
(** Same return type and positionally equal parameter types. *)

val incremental_default : unit -> bool
(** The default for [?incremental]: true unless [VERIOPT_INCR] is set to
    [0]/[false]/[off]/[no]. *)

val unroll_schedule : int -> int list
(** The iterative-deepening schedule for a bound: doubling depths ending
    exactly at the bound ([4 -> [1; 2; 4]], [6 -> [1; 2; 4; 6]]). *)

val verify_funcs :
  ?unroll:int ->
  ?max_conflicts:int ->
  ?deadline:float ->
  ?reduce:bool ->
  ?incremental:bool ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  verdict
(** Does [tgt] refine [src]?  Both functions must already be well-formed;
    route untrusted text through {!verify_text}.  [unroll] bounds loop
    unrolling (default 4); [max_conflicts] is the solver budget; [deadline]
    is an absolute wall-clock instant — past it the solver reports
    [Inconclusive] instead of continuing.  [reduce] (default on) is the
    SAT core's learned-clause-DB reduction knob; it affects solver speed,
    never verdicts.

    [incremental] (default {!incremental_default}) makes loop-bearing pairs
    run an iterative-deepening unroll schedule (see {!unroll_schedule}) over
    one persistent solver session, stopping early on a conclusive verdict;
    the [max_conflicts] and [deadline] budgets are amortized across the
    whole schedule.  Verdicts agree with the single-shot path: only the
    final bound's "no mismatch" proves equivalence, counterexamples are
    depth-independent (and still concretely re-validated), and resource
    exhaustion anywhere is inconclusive. *)

val verify_text :
  ?unroll:int ->
  ?max_conflicts:int ->
  ?deadline:float ->
  ?reduce:bool ->
  ?incremental:bool ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt_text:string ->
  verdict
(** Verify model-produced IR text: parse and validation failures map to
    [Syntax_error], as in the paper's tables. *)

val semantics_version : int
(** Bump when the verdict taxonomy or concrete re-validation changes
    meaning; registered in the verdict store's semantics digest so stale
    entries are skipped. *)
