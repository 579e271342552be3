(** Dataset construction, following §IV-A of the paper:

    1. generate source programs ("test suite" surrogate) and lower at -O0;
    2. produce reference labels with `-instcombine`;
    3. keep only pairs Alive proves semantically equivalent (no UB, no
       timeout), and only functions within the 2048-token context limit;
    4. drop pairs where instcombine found nothing to do (the paper notes no
       such samples survive into its sets);
    5. split train / validation disjointly by seed. *)

open Veriopt_ir
module Alive = Veriopt_alive.Alive
module Pass_manager = Veriopt_passes.Pass_manager
module Par = Veriopt_par.Par

type sample = {
  id : int;
  modul : Ast.modul; (* declarations context shared by src and label *)
  src : Ast.func; (* the -O0 form *)
  label : Ast.func; (* the -instcombine reference *)
  trace : Pass_manager.trace_entry list; (* rule applications src -> label *)
  src_text : string;
  label_text : string;
}

type stats = {
  generated : int;
  kept : int;
  dropped_no_change : int;
  dropped_not_equivalent : int;
  dropped_inconclusive : int;
  dropped_too_long : int;
}

let empty_stats =
  {
    generated = 0;
    kept = 0;
    dropped_no_change = 0;
    dropped_not_equivalent = 0;
    dropped_inconclusive = 0;
    dropped_too_long = 0;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "generated %d; kept %d; dropped: unchanged %d, not-equivalent %d, inconclusive %d, too-long %d"
    s.generated s.kept s.dropped_no_change s.dropped_not_equivalent s.dropped_inconclusive
    s.dropped_too_long

(* The cheap front half of sample construction: generation, lowering,
   instcombine, and the no-change / token filters.  No solver involved. *)
let generate_candidate ~(seed : int) (id : int) : (sample, stats -> stats) result =
  let profile =
    (* vary shape across the corpus *)
    let r = Random.State.make [| seed; 77 |] in
    {
      Cgen.default_profile with
      Cgen.max_stmts = 2 + Random.State.int r 6;
      Cgen.max_depth = 2 + Random.State.int r 2;
      Cgen.allow_loops = Random.State.int r 4 = 0;
      Cgen.allow_calls = Random.State.int r 3 = 0;
    }
  in
  let cf = Cgen.generate ~profile ~seed ~name:(Fmt.str "f%d" id) () in
  let modul, src = Lower.lower cf in
  let label, trace = Pass_manager.instcombine modul src in
  let src_text = Printer.func_to_string src in
  let label_text = Printer.func_to_string label in
  if trace = [] then Error (fun s -> { s with dropped_no_change = s.dropped_no_change + 1 })
  else if not (Veriopt_nlp.Tokenizer.within_limit src_text) then
    Error (fun s -> { s with dropped_too_long = s.dropped_too_long + 1 })
  else Ok { id; modul; src; label; trace; src_text; label_text }

(* The expensive back half: the Alive equivalence filter. *)
let verify_candidate (s : sample) : (sample, stats -> stats) result =
  match (Alive.verify_funcs s.modul ~src:s.src ~tgt:s.label).Alive.category with
  | Alive.Equivalent -> Ok s
  | Alive.Semantic_error | Alive.Syntax_error ->
    Error (fun s -> { s with dropped_not_equivalent = s.dropped_not_equivalent + 1 })
  | Alive.Inconclusive ->
    Error (fun s -> { s with dropped_inconclusive = s.dropped_inconclusive + 1 })

(** Build one candidate sample from a seed; [Error] when filtered out. *)
let build_sample ?(verify = true) ~(seed : int) (id : int) : (sample, stats -> stats) result =
  match generate_candidate ~seed id with
  | Error bump -> Error bump
  | Ok s -> if verify then verify_candidate s else Ok s

type dataset = { samples : sample list; stats : stats }

(** Build [n] samples starting from [seed0].  Training and validation sets
    use disjoint seed ranges, which keeps them strictly separated (the
    paper's "strictly isolated ... to avoid any data leakage").

    With verification on and a parallel {!Par} pool available, the Alive
    filter — by far the dominant cost — runs over the pool in waves, and is
    bit-for-bit identical to the sequential build: a sample's id (hence its
    printed name) depends on how many earlier candidates were kept, so each
    wave guesses ids optimistically (assuming every verified candidate
    survives), verifies in parallel, and commits results in order; the first
    verify-level drop invalidates the guessed ids of the wave's tail, which
    is simply re-generated from the same seeds with corrected ids.  Since
    label pairs overwhelmingly verify as equivalent, aborts are rare. *)
let build ?(verify = true) ~seed0 ~n () : dataset =
  let sequential () =
    let rec go i id acc stats =
      if id >= n then { samples = List.rev acc; stats }
      else
        let stats = { stats with generated = stats.generated + 1 } in
        match build_sample ~verify ~seed:(seed0 + i) id with
        | Ok s -> go (i + 1) (id + 1) (s :: acc) { stats with kept = stats.kept + 1 }
        | Error bump -> go (i + 1) id acc (bump stats)
    in
    go 0 0 [] empty_stats
  in
  (* [Par.shared_jobs] spawns the pool's domains, after which this process
     can no longer fork: only touch it when there is verification to spread *)
  let jobs = if verify && n > 0 then Par.shared_jobs () else 1 in
  if jobs <= 1 then sequential ()
  else begin
    let wave = 2 * jobs in
    let rec go i id acc stats =
      if id >= n then { samples = List.rev acc; stats }
      else begin
        (* Phase A (sequential, cheap): generate a wave with guessed ids. *)
        let gid = ref id in
        let cands =
          List.init wave (fun j ->
              let r = generate_candidate ~seed:(seed0 + i + j) !gid in
              (match r with Ok _ -> incr gid | Error _ -> ());
              (i + j, r))
        in
        (* Phase B (parallel): the Alive filter over the survivors. *)
        let verified =
          Par.run verify_candidate
            (List.filter_map (function _, Ok s -> Some s | _ -> None) cands)
        in
        (* Phase C (in order): commit until a verify-drop stales the guesses. *)
        let rec commit cands vres next_i id acc stats =
          match cands with
          | [] -> go next_i id acc stats
          | (j, r) :: rest -> (
            if id >= n then { samples = List.rev acc; stats }
            else
              let stats = { stats with generated = stats.generated + 1 } in
              match r with
              | Error bump -> commit rest vres (j + 1) id acc (bump stats)
              | Ok _ -> (
                match vres with
                | Ok s :: vrest ->
                  (* abort-on-drop keeps guessed ids equal to true ids for
                     every committed keep *)
                  commit rest vrest (j + 1) (id + 1) (s :: acc)
                    { stats with kept = stats.kept + 1 }
                | Error bump :: _ ->
                  (* the tail's guessed ids are now one too high: redo it *)
                  go (j + 1) id acc (bump stats)
                | [] -> assert false))
        in
        commit cands verified (i + wave) id acc stats
      end
    in
    go 0 0 [] empty_stats
  end

let train_seed_base = 1_000_000
let validation_seed_base = 9_000_000

let training ?(verify = true) ~n () = build ~verify ~seed0:train_seed_base ~n ()
let validation ?(verify = true) ~n () = build ~verify ~seed0:validation_seed_base ~n ()
