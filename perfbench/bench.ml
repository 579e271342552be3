(* The repository's end-to-end benchmark.

     bench.exe --workload train|dataset|serve --seed N --seconds S --trace 0|1

   One workload per process.  The run sets up several times (the median is
   [setup_s]), then repeats the workload's job for about [--seconds],
   checks every output it can check, prints a report with every metric by
   name and unit, and ends with one JSON line: the end-to-end metrics
   (untraced) or the per-layer metrics (traced).  A failed output check
   makes the exit code non-zero.

   Every layer is measured from outside: spans around calls into public
   entry points, and deltas of each layer's public counters. *)

module Suite = Veriopt_data.Suite
module Trainer = Veriopt_rl.Trainer
module Reward = Veriopt_rl.Reward
module Engine = Veriopt_alive.Engine
module Alive = Veriopt_alive.Alive
module Solver = Veriopt_smt.Solver
module Vproc = Veriopt_vproc.Vproc
module Par = Veriopt_par.Par
module Serve = Veriopt_serve.Serve
module Workload = Veriopt_serve.Workload
module Evaluate = Veriopt.Evaluate
module Exec_oracle = Veriopt_eval.Exec_oracle
module Instcombine = Veriopt_passes.Instcombine
module Fold_engine = Veriopt_passes.Fold_engine
module Pass_manager = Veriopt_passes.Pass_manager
module Capability = Veriopt_llm.Capability
module Stats = Perfbench.Stats
module Known = Perfbench.Known
module Trace = Perfbench.Trace

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Scale.  Constants, never calibrated per run: a calibrated size or rate
   would move with the code and hide the change being measured. *)

let setups = 15
let serve_setups = 5

(* train: the four-model curriculum at reduced scale *)
let train_n = 120
let val_n = 50
let grpo_steps = 12
let sft_epochs = 1

(* dataset: a fixed corpus of [chunks] Alive-filtered builds of [chunk_kept]
   pairs each, from disjoint seed windows of the training range *)
let chunks = 4
let chunk_kept = 5
let chunk_stride = 6

(* serve: open-loop phases (name, rate in req/s, share of --seconds,
   arrivals).  lo is below saturation, hi above it, the ladder in between.
   lo is paced, one arrival every 1/rate s: two tier-2 requests that overlap
   each take about twice as long on a 2-core host, so with seeded exponential
   gaps the lo latencies followed the seed's bursts (median 0.24-0.44 s over
   eight seeds).  The other phases keep the exponential gaps and their
   bursts. *)
type arrivals = Paced | Exponential

let serve_plan =
  [
    ("lo", 4., 0.65, Paced);
    ("ladder0", 20., 0.07, Exponential);
    ("ladder1", 40., 0.07, Exponential);
    ("hi", 80., 0.08, Exponential);
  ]

(* Exact mix of every block of 20 fresh queries, in the generator's shape
   names: the hostile 40% mul-chain loops and 20% mul-comm pairs, then the
   easy, wrong and count pairs. *)
let serve_mix = [ ("mul-chain", 8); ("mul-comm", 4); ("easy", 3); ("wrong", 3); ("count", 2) ]
(* the shapes that need tier 2 *)
let hard_shapes = [ "mul-chain"; "mul-comm" ]
let dup_per_10 = 3
let interactive_per_4 = 1
let interactive_budget = 0.1
let bulk_budget = 2.0

(* max_rate_rps: the highest rate at which this share of bulk requests gets
   a verdict within the bulk budget *)
let max_rate_in_time = 0.9

(* ------------------------------------------------------------------ *)
(* What one run reports. *)

type metric = { name : string; unit_ : string; value : float; note : string }

let report : metric list ref = ref []
let add ?(note = "") name unit_ value = report := { name; unit_; value; note } :: !report
let attempted = ref 0
let failed = ref 0
let refused = ref 0
let check_failures : string list ref = ref []
let check_fail fmt = Printf.ksprintf (fun s -> check_failures := s :: !check_failures) fmt
let provenance : (string * string) list ref = ref []
let prov k v = provenance := (k, v) :: !provenance
let ratio a b = if b = 0. then 0. else a /. b
let of_base a b = Printf.sprintf "%.0f of %.0f" a b

(* ------------------------------------------------------------------ *)
(* Counters, snapshotted at span and job boundaries. *)

let solver_counters () =
  let s = Solver.stats () in
  [
    ("smt.checks", float s.Solver.checks);
    ("smt.conflicts", float s.Solver.conflicts);
    ("smt.decisions", float s.Solver.decisions);
    ("smt.propagations", float s.Solver.propagations);
    ("smt.learned", float s.Solver.learned);
    ("smt.reductions", float s.Solver.reductions);
    ("smt.sessions", float s.Solver.sessions);
  ]

let engine_counters e () =
  let s = Engine.stats e in
  [
    ("alive.hits", float s.Veriopt_alive.Vcache.hits);
    ("alive.lookups", float (s.Veriopt_alive.Vcache.hits + s.Veriopt_alive.Vcache.misses));
    ("alive.tier1_hits", float s.Veriopt_alive.Vcache.tier1_hits);
    ("alive.tier1_runs", float (s.Veriopt_alive.Vcache.tier1_hits + s.Veriopt_alive.Vcache.tier1_misses));
    ("alive.tier1_s", s.Veriopt_alive.Vcache.tier1_seconds);
    ("alive.tier2_runs", float s.Veriopt_alive.Vcache.tier2_runs);
    ("alive.tier2_s", s.Veriopt_alive.Vcache.tier2_seconds);
  ]

let vproc_counters () =
  let s = Vproc.stats () in
  [
    ("vproc.frames", float s.Vproc.frames);
    ("vproc.spawned", float s.Vproc.spawned);
    ("vproc.killed", float s.Vproc.killed);
    ("vproc.respawned", float s.Vproc.respawned);
    ("vproc.crashed", float s.Vproc.crashed);
  ]

let misc_counters () =
  [
    ("rl.engine_failures", float (Reward.engine_failures ()));
    ("passes.rewrites", float (Atomic.get Instcombine.rewrites_total));
    ("passes.restarts", float (Atomic.get Fold_engine.restarts_total));
  ]

let no_engine () = []

let snapshot engine =
  solver_counters () @ engine () @ vproc_counters () @ misc_counters ()

let diff after before = List.map2 (fun (k, a) (_, b) -> (k, a -. b)) after before
let get d k = Option.value ~default:0. (List.assoc_opt k d)

(* ------------------------------------------------------------------ *)
(* Helpers *)

let timed ?req ?probe name f =
  let t0 = now () in
  let r = Trace.span ?req ?probe name f in
  (r, now () -. t0)

(* Fisher-Yates, in place; returns [a]. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Median set-up time over [n] set-ups.  The last set-up's result is kept;
   [discard] releases each earlier one, outside the timed region.  Each
   set-up starts from a collected heap, so its time does not include
   collecting the previous one's garbage. *)
let measure_setup ?(discard = ignore) n f =
  let times = ref [] in
  let rec go i =
    Gc.full_major ();
    let t0 = now () in
    let r = f () in
    times := (now () -. t0) :: !times;
    if i < n then begin
      discard r;
      go (i + 1)
    end
    else r
  in
  let r = go 1 in
  add "setup_s" "s" (Stats.median !times) ~note:(Printf.sprintf "median of %d set-ups" n);
  r

(* Repeat [job] while the next repetition fits the time budget, at least
   once.  A traced run traces exactly its second job (so it runs at least
   two): the per-layer metrics then describe one job, and the traced job's
   time minus the median untraced one is the tracing overhead.  Returns
   every job's result, the untraced job times, and the traced job's result
   and time. *)
let repeat ~seconds ~traced job =
  let t0 = now () in
  let plain = ref [] and results = ref [] and spanned = ref None in
  let rec go i =
    let trace_this = traced && i = 1 in
    Trace.on := trace_this;
    let r, dt = timed "bench.job" ~req:(string_of_int i) (fun () -> job ~traced:trace_this) in
    Trace.on := false;
    if trace_this then spanned := Some (r, dt) else plain := dt :: !plain;
    results := r :: !results;
    let elapsed = now () -. t0 in
    let next = Stats.median (dt :: !plain) in
    if (traced && i < 1) || elapsed +. next <= seconds then go (i + 1)
  in
  go 0;
  (List.rev !results, !plain, !spanned)

let jobs_note what times =
  Printf.sprintf "%s, median of %d jobs: %s s" what (List.length times)
    (String.concat " " (List.map (Printf.sprintf "%.3f") times))

let add_overhead plain traced_s =
  add "trace.overhead_s" "s"
    (traced_s -. Stats.median plain)
    ~note:
      (Printf.sprintf "traced job %.4f s minus median untraced job %.4f s (%d jobs)" traced_s
         (Stats.median plain) (List.length plain))

(* Instcombine re-run over built samples, traced only and outside any timed
   job: gives the passes layer its own span, since it runs inside Suite's
   candidate builder. *)
let instcombine_spans (samples : Suite.sample list) =
  if !Trace.on then
    List.iter
      (fun (s : Suite.sample) ->
        Trace.span "passes.instcombine" ~req:(string_of_int s.Suite.id) (fun () ->
            ignore (Pass_manager.instcombine s.Suite.modul s.Suite.src)))
      samples

(* ------------------------------------------------------------------ *)
(* Per-layer metrics.  Every workload prints all of them; a layer a
   workload bypasses reads 0. *)

let layer_metrics ~(d : (string * float) list) ~pool ~kept ~generated =
  let lookups = get d "alive.lookups" and hits = get d "alive.hits" in
  add "alive.lookups" "count" lookups;
  add "alive.cache_hit_ratio" "ratio" (ratio hits lookups) ~note:("hits: " ^ of_base hits lookups);
  let t1 = get d "alive.tier1_runs" and t1h = get d "alive.tier1_hits" in
  add "alive.tier1_runs" "count" t1;
  add "alive.tier1_hit_ratio" "ratio" (ratio t1h t1) ~note:("refuted by tier 1: " ^ of_base t1h t1);
  add "alive.tier1_s" "s" (get d "alive.tier1_s") ~note:"summed over the pool";
  let t2 = get d "alive.tier2_runs" and t2s = get d "alive.tier2_s" in
  add "alive.tier2_runs" "count" t2;
  add "alive.tier2_s" "s" t2s ~note:"summed over the pool";
  add "alive.tier2_ms_per_run" "ms" (1e3 *. ratio t2s t2) ~note:(Printf.sprintf "%.3f s over %.0f runs" t2s t2);
  let verify_s = Trace.total "alive.verify" in
  add "alive.verify_s" "s" verify_s ~note:"spans around Alive.verify_funcs";
  List.iter
    (fun k -> add k "count" (get d k))
    [ "smt.checks"; "smt.conflicts"; "smt.decisions"; "smt.propagations" ];
  let props = get d "smt.propagations" in
  let solve_s = if verify_s > 0. then verify_s else t2s in
  add "smt.props_per_s" "1/s" (ratio props solve_s)
    ~note:(Printf.sprintf "%.0f propagations over %.3f s of %s" props solve_s
             (if verify_s > 0. then "alive.verify_s" else "alive.tier2_s"));
  List.iter (fun k -> add k "count" (get d k)) [ "smt.learned"; "smt.reductions"; "smt.sessions" ];
  let stage k = Trace.total ("rl." ^ k) in
  List.iter (fun k -> add ("rl." ^ k ^ "_s") "s" (stage k)) [ "zero"; "sft"; "correctness"; "latency"; "eval" ];
  let grpo = stage "zero" +. stage "correctness" +. stage "latency" in
  let engine_in k = Trace.delta ("rl." ^ k) "alive.tier1_s" +. Trace.delta ("rl." ^ k) "alive.tier2_s" in
  let engine_s = engine_in "zero" +. engine_in "correctness" +. engine_in "latency" in
  add "rl.grpo_self_s" "s"
    (if grpo = 0. then 0. else grpo -. (engine_s /. float pool))
    ~note:
      (Printf.sprintf "estimate: GRPO stage spans %.3f s minus engine tier time %.3f s / pool %d" grpo
         engine_s pool);
  add "rl.engine_failures" "count" (get d "rl.engine_failures");
  add "data.candidate_s" "s" (Trace.total "data.candidate") ~note:"spans around Suite builds without the filter";
  add "data.kept_ratio" "ratio" (ratio kept generated) ~note:("kept: " ^ of_base kept generated);
  add "passes.instcombine_s" "s" (Trace.total "passes.instcombine") ~note:"re-run over the built samples";
  add "passes.rewrites" "count" (Trace.delta "data.candidate" "passes.rewrites") ~note:"inside candidate spans";
  add "passes.restarts" "count" (Trace.delta "data.candidate" "passes.restarts") ~note:"inside candidate spans";
  List.iter
    (fun k -> add k "count" (get d k))
    [ "vproc.frames"; "vproc.spawned"; "vproc.killed"; "vproc.respawned"; "vproc.crashed" ]

let par_layer_zero () = List.iter (fun (k, u) -> add k u 0.) [ ("par.map_s", "s"); ("par.speedup", "x") ]

let serve_layer_zero () =
  List.iter
    (fun (k, u) -> add k u 0.)
    [
      ("serve.engine_calls", "count");
      ("serve.coalesced_ratio", "ratio");
      ("serve.admission_refused", "count");
      ("serve.shed", "count");
      ("serve.depth_max", "count");
      ("serve.service_tail_ms", "ms");
      ("serve.gen_late_ms", "ms");
    ]

let self_metrics () =
  let by_layer = Trace.layer_self (List.rev !Trace.spans) in
  List.iter
    (fun l ->
      add ("self." ^ l ^ "_s") "s"
        (Option.value ~default:0. (List.assoc_opt l by_layer))
        ~note:"span time not covered by child spans")
    [ "bench"; "data"; "passes"; "rl"; "alive"; "serve" ]

(* ------------------------------------------------------------------ *)
(* train *)

let build_set ~seed0 ~n =
  let ds, _ =
    timed "data.candidate" ~req:(string_of_int seed0) ~probe:misc_counters (fun () ->
        Suite.build ~verify:false ~seed0 ~n ())
  in
  instcombine_spans ds.Suite.samples;
  ds

(* The concrete battery every verified output must pass. *)
let oracle_agrees ~what ~seed m ~src ~tgt =
  match Exec_oracle.equivalent ~seed m ~src ~tgt with
  | Exec_oracle.Io_equivalent _ -> `Agrees
  | Exec_oracle.Io_unsupported _ -> `Unsupported
  | Exec_oracle.Io_different _ ->
    check_fail "%s: verified as equivalent but the interpreter tells them apart" what;
    `Differs

(* The par layer on its parallel path: the last job's evaluation pairs
   verified again, each pass on a fresh engine, through [Par.map] on a pool
   of the default size and then sequentially, [par_rounds] times (medians).
   Traced runs only, outside the timed jobs.  Each round shuts its pool
   down before the sequential pass, so that pass runs on one domain. *)
let par_rounds = 3

let par_probe ~jobs (rows : Evaluate.row list) =
  let pairs = List.map (fun (r : Evaluate.row) -> (r.Evaluate.sample, r.Evaluate.output)) rows in
  let verify_all map =
    let engine = Engine.create () in
    let t0 = now () in
    ignore
      (map
         (fun ((s : Suite.sample), out) ->
           Engine.verify_funcs ~max_conflicts:60_000 engine s.Suite.modul ~src:s.Suite.src ~tgt:out)
         pairs);
    now () -. t0
  in
  let rounds =
    List.init par_rounds (fun _ ->
        let pool = Par.create ~jobs in
        let pooled = Fun.protect ~finally:(fun () -> Par.shutdown pool) (fun () -> verify_all (Par.map pool)) in
        (pooled, verify_all List.map))
  in
  let map_s = Stats.median (List.map fst rounds) and seq_s = Stats.median (List.map snd rounds) in
  add "par.map_s" "s" map_s
    ~note:(Printf.sprintf "%d evaluation pairs on a pool of %d, median of %d" (List.length pairs) jobs par_rounds);
  add "par.speedup" "x" (ratio seq_s map_s)
    ~note:(Printf.sprintf "sequential %.3f s over pooled %.3f s, medians of %d" seq_s map_s par_rounds)

let train ~seed ~seconds ~traced =
  (* Pool 1 for the jobs.  On a 2-vCPU shared host the default pool's second
     domain doubled the job while the host was busy (two runs in ten at
     5.5-5.9 s against 2.7-3.7 s), and pool-1 runs in the same minutes were
     at most 15% slower.  [par_probe] measures the parallel path instead. *)
  let par_jobs = Par.default_jobs () in
  Unix.putenv "VERIOPT_JOBS" "1";
  let pool = Par.shared_jobs () in
  prov "par_jobs"
    (if traced then Printf.sprintf "%d (the traced run's par probe: %d)" pool par_jobs else string_of_int pool);
  prov "vproc_jobs" "0 (in-process engine)";
  let opts = { Trainer.default_options with Trainer.grpo_steps; sft_epochs } in
  let train_set, val_set, base =
    measure_setup setups (fun () ->
        let tr = build_set ~seed0:Suite.train_seed_base ~n:train_n in
        let va = build_set ~seed0:Suite.validation_seed_base ~n:val_n in
        (tr, va, Capability.base_3b ()))
  in
  (* the traced run builds the sets once more under spans *)
  if traced then begin
    Trace.on := true;
    ignore (build_set ~seed0:Suite.train_seed_base ~n:train_n);
    ignore (build_set ~seed0:Suite.validation_seed_base ~n:val_n);
    Trace.on := false
  end;
  let train = train_set.Suite.samples in
  let validation =
    Array.to_list (shuffle (Random.State.make [| seed; 0xe7a1 |]) (Array.of_list val_set.Suite.samples))
  in
  let kept = float (train_set.Suite.stats.Suite.kept + val_set.Suite.stats.Suite.kept) in
  let generated = float (train_set.Suite.stats.Suite.generated + val_set.Suite.stats.Suite.generated) in
  let job ~traced:_ =
    let engine = Engine.create () in
    let probe () = snapshot (engine_counters engine) in
    let before = probe () in
    let stage name f = fst (timed ("rl." ^ name) ~req:name ~probe f) in
    let t0 = now () in
    let s1 = stage "zero" (fun () -> Trainer.train_model_zero ~opts ~engine base train) in
    let warm = stage "sft" (fun () -> Trainer.warm_up ~opts base train s1.Trainer.failures) in
    let s2 = stage "correctness" (fun () -> Trainer.train_correctness ~opts ~engine warm train) in
    let s3 =
      stage "latency" (fun () -> Trainer.train_latency ~opts ~engine s2.Trainer.model_correctness train)
    in
    let train_s = now () -. t0 in
    let ev, eval_s =
      timed "rl.eval" ~req:"eval" ~probe (fun () -> Evaluate.run ~engine s3.Trainer.model_latency validation)
    in
    (train_s, eval_s, ev, diff (probe ()) before)
  in
  let results, plain, spanned = repeat ~seconds ~traced job in
  (* output checks: every Equivalent row agrees with its source concretely *)
  let unsupported = ref 0 in
  List.iteri
    (fun i (_, _, ev, d) ->
      List.iter
        (fun (r : Evaluate.row) ->
          match r.Evaluate.category with
          | Evaluate.Correct_copy | Evaluate.Correct_different -> (
            match
              oracle_agrees ~what:(Printf.sprintf "job %d sample %d" i r.Evaluate.sample.Suite.id) ~seed
                r.Evaluate.sample.Suite.modul ~src:r.Evaluate.sample.Suite.src ~tgt:r.Evaluate.output
            with
            | `Unsupported -> incr unsupported
            | `Agrees | `Differs -> ())
          | _ -> ())
        ev.Evaluate.rows;
      attempted := !attempted + int_of_float (get d "alive.lookups");
      failed := !failed + int_of_float (get d "rl.engine_failures"))
    results;
  let _, _, ev, _ = List.nth results (List.length results - 1) in
  let c = ev.Evaluate.counts in
  let jobs = List.map (fun (t, e, _, _) -> t +. e) results in
  let train_s = Stats.median (List.map (fun (t, _, _, _) -> t) results) in
  let eval_rate = Stats.median (List.map (fun (_, e, _, _) -> float c.Evaluate.total /. e) results) in
  let correct = float c.Evaluate.correct /. float c.Evaluate.total in
  add "job_s" "s" (Stats.median jobs)
    ~note:(jobs_note "curriculum + evaluation" jobs);
  add "ok_share" "share" correct ~note:("= correct_pct / 100; correct: " ^ of_base (float c.Evaluate.correct) (float c.Evaluate.total));
  add "train_s" "s" train_s ~note:"time to a trained Model-Latency, median";
  add "eval_samples_per_s" "1/s" eval_rate ~note:(Printf.sprintf "%d validation samples" c.Evaluate.total);
  add "correct_pct" "%" (100. *. correct) ~note:(of_base (float c.Evaluate.correct) (float c.Evaluate.total));
  add "diff_correct_pct" "%" (100. *. Evaluate.different_correct_rate ev);
  add "geomean_speedup" "x"
    (Evaluate.geomean_speedup ev.Evaluate.rows
       ~metric:(fun m -> m.Evaluate.latency)
       ~out:Evaluate.out_metrics ~base:Evaluate.src_metrics)
    ~note:"latency of the deployed output vs -O0, verify-or-fallback";
  add "oracle_unsupported" "count" (float !unsupported) ~note:"verified rows the battery cannot run";
  (match spanned with
  | Some ((_, _, _, d), traced_s) ->
    layer_metrics ~d ~pool ~kept ~generated;
    serve_layer_zero ();
    self_metrics ();
    add_overhead plain traced_s;
    par_probe ~jobs:par_jobs ev.Evaluate.rows
  | None -> ());
  `Counts_repeat (pool = 1)

(* ------------------------------------------------------------------ *)
(* dataset *)

(* The corpus is fixed, and so is its order: chunk [c] is the Alive-filtered
   build of [chunk_kept] pairs from seed window [c].  Build order changes the
   SAT work (hash-consed term ids are handed out in build order: two orders
   took 9,032 and 9,944 conflicts), so the seed only seeds the output check's
   interpreter battery. *)
let order = List.init chunks Fun.id

let chunk_seed0 c = Suite.train_seed_base + (c * chunk_stride)

(* The traced build: the same pairs as [Suite.build ~verify:true] at pool 1,
   built one candidate at a time so the candidate and verify halves each get
   a span.  (At pool 1 the sequential build is exactly this loop.) *)
let traced_chunk c =
  let seed0 = chunk_seed0 c in
  let rec go i id acc stats =
    if id >= chunk_kept then { Suite.samples = List.rev acc; stats }
    else
      let seed = seed0 + i in
      let stats = { stats with Suite.generated = stats.Suite.generated + 1 } in
      match
        Trace.span "data.candidate" ~req:(string_of_int seed) ~probe:misc_counters (fun () ->
            Suite.build_sample ~verify:false ~seed id)
      with
      | Error bump -> go (i + 1) id acc (bump stats)
      | Ok s -> (
        let v =
          Trace.span "alive.verify" ~req:(string_of_int seed) ~probe:solver_counters (fun () ->
              Alive.verify_funcs s.Suite.modul ~src:s.Suite.src ~tgt:s.Suite.label)
        in
        match v.Alive.category with
        | Alive.Equivalent -> go (i + 1) (id + 1) (s :: acc) { stats with Suite.kept = stats.Suite.kept + 1 }
        | Alive.Semantic_error | Alive.Syntax_error ->
          go (i + 1) id acc { stats with Suite.dropped_not_equivalent = stats.Suite.dropped_not_equivalent + 1 }
        | Alive.Inconclusive ->
          go (i + 1) id acc { stats with Suite.dropped_inconclusive = stats.Suite.dropped_inconclusive + 1 })
  in
  go 0 0 [] Suite.empty_stats

(* Pool 1: the filter's solver counts then repeat exactly, and at the
   default pool of 2 two runs differed by 26% in wall time. *)
let dataset ~seed ~seconds ~traced =
  Unix.putenv "VERIOPT_JOBS" "1";
  let pool = Par.shared_jobs () in
  prov "par_jobs" (string_of_int pool);
  prov "vproc_jobs" "0 (no engine)";
  (* set-up: generating the corpus's unfiltered candidates.  Suite.build
     takes seeds, not candidates, so the job generates them again. *)
  ignore
    (measure_setup setups (fun () ->
         List.map (fun c -> Suite.build ~verify:false ~seed0:(chunk_seed0 c) ~n:chunk_kept ()) order));
  let job ~traced =
    let before = snapshot no_engine in
    let built =
      List.map
        (fun c ->
          if traced then traced_chunk c
          else Suite.build ~verify:true ~seed0:(chunk_seed0 c) ~n:chunk_kept ())
        order
    in
    (built, diff (snapshot no_engine) before)
  in
  let results, plain, spanned = repeat ~seconds ~traced job in
  Option.iter
    (fun ((built, _), _) ->
      Trace.on := true;
      List.iter (fun ds -> instcombine_spans ds.Suite.samples) built;
      Trace.on := false)
    spanned;
  let times = plain @ Option.to_list (Option.map snd spanned) in
  (* output checks: every kept label agrees with its source concretely, and
     every job kept the same pairs *)
  let reference = ref None in
  List.iteri
    (fun i (built, _) ->
      let names =
        List.concat_map (fun ds -> List.map (fun s -> s.Suite.label_text) ds.Suite.samples) built
      in
      (match !reference with
      | None -> reference := Some names
      | Some r -> if r <> names then check_fail "dataset job %d kept different pairs than job 0" i);
      List.iter
        (fun ds ->
          List.iter
            (fun (s : Suite.sample) ->
              attempted := !attempted + 1;
              ignore
                (oracle_agrees ~what:(Printf.sprintf "job %d pair %s" i s.Suite.src.Veriopt_ir.Ast.fname) ~seed
                   s.Suite.modul ~src:s.Suite.src ~tgt:s.Suite.label))
            ds.Suite.samples)
        built)
    results;
  let built, _ = List.nth results (List.length results - 1) in
  let kept = float (List.fold_left (fun a ds -> a + ds.Suite.stats.Suite.kept) 0 built) in
  let generated = float (List.fold_left (fun a ds -> a + ds.Suite.stats.Suite.generated) 0 built) in
  if kept <> float (chunks * chunk_kept) then check_fail "dataset kept %.0f pairs, wanted %d" kept (chunks * chunk_kept);
  let job_s = Stats.median times in
  add "job_s" "s" job_s ~note:(jobs_note "Alive-filtered corpus build" times);
  add "ok_share" "share" (kept /. generated) ~note:("kept pairs: " ^ of_base kept generated);
  add "samples_per_s" "1/s" (kept /. job_s) ~note:(Printf.sprintf "%.0f kept verified pairs per job" kept);
  (match spanned with
  | Some ((_, d), traced_s) ->
    layer_metrics ~d ~pool ~kept ~generated;
    serve_layer_zero ();
    par_layer_zero ();
    self_metrics ();
    add_overhead plain traced_s
  | None -> ());
  `Counts_repeat (pool = 1)

(* ------------------------------------------------------------------ *)
(* serve *)

type arrival = { idx : int; off : float; q : Workload.query; interactive : bool; dup : bool }

(* [n] slots, [k] of them marked, in a seeded order. *)
let marks rng ~k ~n = shuffle rng (Array.init n (fun i -> i < k))

(* Fresh queries of stream [seed], in a seeded order that keeps the mix of
   every block of 20 exactly [serve_mix]: the generator's own index hash
   picks each shape; the stratification only fixes the proportions, so a
   short run sees the same mix as a long one. *)
let fresh_queries ~seed ~phase =
  let pools = Hashtbl.create 8 in
  let next = ref (phase * 1_000_000) in
  let rec take label =
    match Hashtbl.find_opt pools label with
    | Some (q :: rest) ->
      Hashtbl.replace pools label rest;
      q
    | _ ->
      let q = Workload.make ~seed ~index:!next in
      incr next;
      let l = q.Workload.w_label in
      Hashtbl.replace pools l (Option.value ~default:[] (Hashtbl.find_opt pools l) @ [ q ]);
      take label
  in
  let rng = Random.State.make [| seed; phase; 0x3a1 |] in
  let block = List.concat_map (fun (l, k) -> List.init k (fun _ -> l)) serve_mix in
  let pending = ref [] in
  fun () ->
    if !pending = [] then pending := Array.to_list (shuffle rng (Array.of_list block));
    let l = List.hd !pending in
    pending := List.tl !pending;
    take l

(* A phase's arrivals, generated before timing starts: paced or seeded
   exponential gaps; in every 10 arrivals [dup_per_10] replay a recent fresh
   query (half of them alpha-renamed); in every 4, [interactive_per_4] is
   interactive. *)
let schedule ~seed ~phase ~rate ~dur ~arrivals =
  let rng = Random.State.make [| seed; phase; 0x5e7e |] in
  let fresh = fresh_queries ~seed ~phase in
  let recent = Array.make 32 None and n_fresh = ref 0 in
  let dups = ref [||] and inter = ref [||] in
  let rec go i t acc =
    if t >= dur then List.rev acc
    else begin
      if i mod 10 = 0 then dups := marks rng ~k:dup_per_10 ~n:10;
      if i mod 4 = 0 then inter := marks rng ~k:interactive_per_4 ~n:4;
      let dup = !n_fresh > 0 && !dups.(i mod 10) in
      let q =
        if dup then begin
          let q = Option.get recent.(Random.State.int rng (min !n_fresh 32)) in
          if Random.State.bool rng then Workload.alpha_variant q else q
        end
        else begin
          let q = fresh () in
          recent.(!n_fresh mod 32) <- Some q;
          incr n_fresh;
          q
        end
      in
      let gap =
        match arrivals with
        | Paced -> 1. /. rate
        | Exponential -> -.log (1. -. Random.State.float rng 1.) /. rate
      in
      go (i + 1) (t +. gap) ({ idx = i; off = t; q; interactive = !inter.(i mod 4); dup } :: acc)
    end
  in
  go 0 0. []

type phase_result = {
  p_name : string;
  p_rate : float;
  reqs : Stats.request list;
  labelled : (string * Stats.request) list;  (** by generator shape *)
  fresh_hard_bulk : Stats.request list;  (** bulk, hard shape, not a duplicate *)
  p_wall : float;
}

let run_phase sv ~name ~rate arrivals =
  let t0 = now () +. 0.02 in
  let submitted =
    List.map
      (fun a ->
        let due = t0 +. a.off in
        let wait = due -. now () in
        if wait > 0. then Unix.sleepf wait;
        let sent = now () in
        let priority = if a.interactive then Serve.Interactive else Serve.Bulk in
        let budget = if a.interactive then interactive_budget else bulk_budget in
        let q = a.q in
        let tk =
          Serve.submit ~priority ~deadline:(due +. budget) ?unroll:q.Workload.w_unroll
            ?max_conflicts:q.Workload.w_max_conflicts sv q.Workload.w_m ~src:q.Workload.w_src
            ~tgt:q.Workload.w_tgt
        in
        (a, due, sent, tk))
      arrivals
  in
  let reqs =
    List.map
      (fun (a, due, sent, tk) ->
        let o = Serve.await tk in
        let resolved = sent +. Serve.latency tk in
        let outcome =
          match o with
          | Serve.Rejected _ -> Stats.Refused
          | Serve.Verdict v -> (
            match Known.check a.q.Workload.w_label v.Alive.category with
            | Known.Match -> Stats.Answered { conclusive = true; matches = true }
            | Known.Inconclusive -> Stats.Answered { conclusive = false; matches = false }
            | Known.Mismatch | Known.Unknown_shape ->
              check_fail "serve %s #%d (%s): wrong verdict %s" name a.idx a.q.Workload.w_label
                v.Alive.message;
              Stats.Answered { conclusive = true; matches = false })
        in
        (* layer "request": request spans overlap, so their self times are
           request-seconds, kept out of the serve layer's wall time *)
        Trace.record ~req:(Printf.sprintf "%s#%d" name a.idx) ~t0:due ~t1:resolved "request.serve";
        (a.q.Workload.w_label, { Stats.due; sent; resolved; interactive = a.interactive; outcome }))
      submitted
  in
  let fresh_hard_bulk =
    List.filter_map
      (fun (a, (l, r)) ->
        if a.interactive || a.dup || not (List.mem l hard_shapes) then None else Some r)
      (List.combine arrivals reqs)
  in
  { p_name = name; p_rate = rate; reqs = List.map snd reqs; labelled = reqs; fresh_hard_bulk; p_wall = now () -. t0 }

let budget_of (r : Stats.request) = if r.Stats.interactive then interactive_budget else bulk_budget
let ok r = Stats.ok ~budget:(budget_of r) r
let bulk p = List.filter (fun r -> not r.Stats.interactive) p.reqs
let interactive p = List.filter (fun r -> r.Stats.interactive) p.reqs

(* The bulk ok share of a phase re-weighted to the declared mix: the ok
   rate of each shape's bulk requests, weighted by the shape's share of fresh
   queries.  Which shapes the duplicates replay is random, and at a hundred
   requests that alone moves the raw share by about 15%.  The interactive
   class is left out: at lo its admission follows a latency EWMA whose state
   tracks the host's momentary speed, and its ok share moved between 0.31 and
   0.40 over eight seeds.  It is reported as lo.interactive_ok_share. *)
let bulk_ok_share p =
  let total = float (List.fold_left (fun a (_, k) -> a + k) 0 serve_mix) in
  List.fold_left
    (fun acc (label, k) ->
      let cell =
        List.filter_map (fun (l, r) -> if l = label && not r.Stats.interactive then Some r else None) p.labelled
      in
      if cell = [] then acc else acc +. (float k /. total *. Stats.share ok cell))
    0. serve_mix

let serve ~seed ~seconds ~traced =
  (* the Proc engine forks its workers: no domain may exist yet *)
  prov "par_jobs" (Printf.sprintf "%d (pool never started)" (Par.default_jobs ()));
  let dispatchers = Domain.recommended_domain_count () in
  prov "serve_dispatchers" (string_of_int dispatchers);
  let plan = List.map (fun (name, rate, share, arrivals) -> (name, rate, share *. seconds, arrivals)) serve_plan in
  let spawned0 = (Vproc.stats ()).Vproc.spawned in
  let setup () =
    let engine = Engine.create ~isolate:Engine.Proc () in
    let sv =
      Serve.create ~config:{ Serve.default_config with Serve.workers = dispatchers } ~engine ()
    in
    let phases =
      List.mapi
        (fun i (name, rate, dur, arrivals) -> (name, rate, schedule ~seed ~phase:i ~rate ~dur ~arrivals))
        plan
    in
    (sv, phases)
  in
  let spares = ref [] in
  let sv, phases =
    measure_setup serve_setups setup ~discard:(fun (s, _) -> spares := s :: !spares)
  in
  let engine = Serve.engine sv in
  if Engine.isolate engine <> Engine.Proc then check_fail "serve engine fell back to in-process tier 2";
  prov "vproc_jobs" (string_of_int (((Vproc.stats ()).Vproc.spawned - spawned0) / serve_setups));
  let before = snapshot (engine_counters engine) in
  Trace.on := traced;
  let results =
    List.map
      (fun (name, rate, arrivals) ->
        Trace.span ("serve." ^ name) (fun () -> run_phase sv ~name ~rate arrivals))
      phases
  in
  Trace.on := false;
  let st = Serve.stats sv in
  let d = diff (snapshot (engine_counters engine)) before in
  let report_drain = Serve.drain ~timeout:5. sv in
  (* Spare services are drained last, side by side: a fork pool's teardown
     sometimes waits out its 10 s per-slot deadline, and an idle pool
     drained before the others are created always does. *)
  List.map (fun s -> Thread.create (fun () -> ignore (Serve.drain ~timeout:1. s)) ()) !spares
  |> List.iter Thread.join;
  if report_drain.Serve.drain_orphans <> 0 then check_fail "serve left %d orphan workers" report_drain.Serve.drain_orphans;
  let all = List.concat_map (fun p -> p.reqs) results in
  attempted := List.length all;
  refused := List.length (List.filter (fun r -> r.Stats.outcome = Stats.Refused) all);
  let phase n = List.find (fun p -> p.p_name = n) results in
  let lo = phase "lo" and hi = phase "hi" in
  let share_note p xs = Printf.sprintf "%s: %s" p.p_name (of_base (float (List.length (List.filter ok xs))) (float (List.length xs))) in
  let tail_ms xs = 1e3 *. Stats.tail_value xs in
  let tail_note xs = Stats.pp_tail ~unit:"ms" ~scale:1e3 (Stats.tail xs) in
  let bulk_lat p = Stats.answered_latencies (bulk p) in
  (* max rate: the highest offered rate at which [max_rate_in_time] of the
     bulk requests got a verdict (any verdict) within the bulk budget *)
  let in_time r =
    match r.Stats.outcome with Stats.Answered _ -> Stats.latency r <= bulk_budget | Stats.Refused -> false
  in
  let max_rate =
    List.fold_left
      (fun acc p -> if Stats.share in_time (bulk p) >= max_rate_in_time then Float.max acc p.p_rate else acc)
      0. results
  in
  let hi_p50 = Stats.median (bulk_lat hi) in
  (* Duplicates are left out: a cached or coalesced one answers in about
     1 ms, and the share of those among the samples would move the median. *)
  let hard = Stats.answered_latencies lo.fresh_hard_bulk in
  add "job_s" "s" (Stats.median hard)
    ~note:
      (Printf.sprintf "median due-to-verdict time of %d answered fresh bulk %s requests at lo; quartiles %s s"
         (List.length hard) (String.concat "/" hard_shapes)
         (let a = Stats.sorted hard and n = List.length hard in
          if n = 0 then "n/a"
          else Printf.sprintf "%.3f %.3f" a.(Stats.rank n 25 - 1) a.(Stats.rank n 75 - 1)));
  add "ok_share" "share" (bulk_ok_share lo) ~note:"lo bulk ok share weighted by the declared shape mix";
  add "lo.ok_share" "share" (Stats.share ok lo.reqs) ~note:(share_note lo lo.reqs);
  add "lo.interactive_ok_share" "share" (Stats.share ok (interactive lo)) ~note:(share_note lo (interactive lo));
  add "lo.bulk_tail_ms" "ms" (tail_ms (bulk_lat lo)) ~note:(tail_note (bulk_lat lo));
  add "hi.ok_share" "share" (Stats.share ok hi.reqs) ~note:(share_note hi hi.reqs);
  add "hi.bulk_p50_ms" "ms" (1e3 *. hi_p50) ~note:(Printf.sprintf "n=%d" (List.length (bulk_lat hi)));
  add "hi.bulk_tail_ms" "ms" (tail_ms (bulk_lat hi)) ~note:(tail_note (bulk_lat hi));
  add "max_rate_rps" "1/s" max_rate
    ~note:
      (String.concat ", "
         (List.map (fun p -> Printf.sprintf "%.0f rps: bulk in time %.2f" p.p_rate (Stats.share in_time (bulk p))) results));
  List.iter
    (fun p ->
      let labels = List.sort_uniq compare (List.map fst serve_mix) in
      prov ("shapes." ^ p.p_name)
        (String.concat " "
           (List.map
              (fun l ->
                let rs = List.filter (fun (lab, _) -> lab = l) p.labelled in
                let count f = List.length (List.filter (fun (_, r) -> f r) rs) in
                Printf.sprintf "%s:%d/%d/%d/%d" l (count ok)
                  (count (fun r -> r.Stats.outcome = Stats.Answered { conclusive = false; matches = false }))
                  (count (fun r -> r.Stats.outcome = Stats.Refused))
                  (List.length rs))
              labels)
        ^ " (ok/inconclusive/refused/all)"))
    results;
  if traced then begin
    layer_metrics ~d ~pool:dispatchers ~kept:0. ~generated:0.;
    let submitted = float (st.Serve.submitted_interactive + st.Serve.submitted_bulk) in
    add "serve.engine_calls" "count" (float st.Serve.engine_calls);
    add "serve.coalesced_ratio" "ratio" (ratio (float st.Serve.coalesced) submitted)
      ~note:("coalesced: " ^ of_base (float st.Serve.coalesced) submitted);
    add "serve.admission_refused" "count" (float st.Serve.admission_refused);
    add "serve.shed" "count"
      (float (st.Serve.shed_queue_full + st.Serve.shed_displaced + st.Serve.shed_expired + st.Serve.shed_drain));
    add "serve.depth_max" "count" (float st.Serve.depth_max);
    let service =
      List.filter_map
        (fun r -> match r.Stats.outcome with Stats.Answered _ -> Some (r.Stats.resolved -. r.Stats.sent) | Stats.Refused -> None)
        all
    in
    add "serve.service_tail_ms" "ms" (tail_ms service) ~note:("submit to verdict; " ^ tail_note service);
    let late = List.map Stats.lateness all in
    add "serve.gen_late_ms" "ms" (tail_ms late) ~note:("generator lateness; " ^ tail_note late);
    par_layer_zero ();
    self_metrics ();
    add "trace.overhead_s" "s" 0. ~note:"request spans are recorded after the fact; no traced work"
  end;
  `Counts_repeat false

(* ------------------------------------------------------------------ *)
(* Provenance and output *)

let read_file p = try Some (In_channel.with_open_bin p In_channel.input_all) with Sys_error _ -> None

let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "none (not a git checkout)"
  | Some head -> (
    let head = String.trim head in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
      match read_file (".git/" ^ r) with
      | Some h -> String.trim h
      | None -> (
        match read_file ".git/packed-refs" with
        | Some p ->
          List.find_map
            (fun l -> match String.split_on_char ' ' l with [ h; r' ] when r' = r -> Some h | _ -> None)
            (String.split_on_char '\n' p)
          |> Option.value ~default:"unknown"
        | None -> "unknown"))
    | _ -> head)

(* Digest of every source file under lib/: identifies the code measured even
   where the checkout carries no git metadata. *)
let source_digest () =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then walk p else [ p ])
  in
  walk "lib"
  |> List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let end_to_end = [ "setup_s"; "job_s"; "ok_share" ]

let per_layer =
  [
    "alive.lookups"; "alive.cache_hit_ratio"; "alive.tier1_runs"; "alive.tier1_hit_ratio"; "alive.tier1_s";
    "alive.tier2_runs"; "alive.tier2_s"; "alive.tier2_ms_per_run"; "alive.verify_s"; "smt.checks";
    "smt.conflicts"; "smt.decisions"; "smt.propagations"; "smt.props_per_s"; "smt.learned";
    "smt.reductions"; "smt.sessions"; "rl.zero_s"; "rl.sft_s"; "rl.correctness_s"; "rl.latency_s";
    "rl.eval_s"; "rl.grpo_self_s"; "rl.engine_failures"; "data.candidate_s"; "data.kept_ratio";
    "passes.instcombine_s"; "passes.rewrites"; "passes.restarts"; "vproc.frames"; "vproc.spawned";
    "vproc.killed"; "vproc.respawned"; "vproc.crashed"; "serve.engine_calls"; "serve.coalesced_ratio";
    "serve.admission_refused"; "serve.shed"; "serve.depth_max"; "serve.service_tail_ms";
    "serve.gen_late_ms"; "self.bench_s"; "self.data_s"; "self.passes_s"; "self.rl_s"; "self.alive_s";
    "self.serve_s"; "trace.overhead_s"; "par.map_s"; "par.speedup";
  ]

let json_string s = Printf.sprintf "%S" s

let usage () =
  prerr_endline "usage: bench.exe --workload train|dataset|serve --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: n :: rest -> seconds := float_of_string n; parse rest
    | "--trace" :: n :: rest -> trace := int_of_string n; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  let run =
    match !workload with
    | "train" -> train
    | "dataset" -> dataset
    | "serve" -> serve
    | _ -> usage ()
  in
  prov "workload" !workload;
  prov "seed" (string_of_int !seed);
  prov "traced" (string_of_bool traced);
  prov "seconds" (Printf.sprintf "%g" !seconds);
  prov "git_rev" (git_rev ());
  prov "source_digest" (source_digest ());
  prov "nproc" (string_of_int (Domain.recommended_domain_count ()));
  prov "ocaml" Sys.ocaml_version;
  let t_start = now () in
  let (`Counts_repeat exact) = run ~seed:!seed ~seconds:!seconds ~traced in
  let wall = now () -. t_start in
  prov "counts_repeat_exactly"
    (if exact then "yes: pool 1, the same inputs replay the same solver and cache counts"
     else "no: pool > 1 or live traffic; counts drift run to run, so no gain may rest on them");
  let failed_or_refused = float (!failed + !refused) in
  add "failed_share" "share" (ratio failed_or_refused (float !attempted))
    ~note:
      (Printf.sprintf "%s operations raised, were engine failures, or were refused or shed (%d)"
         (of_base failed_or_refused (float !attempted)) !refused);
  let metrics = List.rev !report in
  Printf.printf "perfbench %s seed %d (%s), %.1f s\n" !workload !seed (if traced then "traced" else "untraced") wall;
  List.iter (fun (k, v) -> Printf.printf "  provenance %-22s %s\n" k v) (List.rev !provenance);
  List.iter
    (fun m -> Printf.printf "  %-26s %14.6g %-6s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  List.iter (fun s -> Printf.printf "  CHECK FAILED: %s\n" s) (List.rev !check_failures);
  let out_dir = "perfbench/out" in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let stem = Printf.sprintf "%s/%s-seed%d-trace%d" out_dir !workload !seed !trace in
  if traced then Trace.write (stem ^ ".spans.jsonl");
  let correct = !check_failures = [] in
  let pick names =
    String.concat ", "
      (List.map
         (fun n ->
           let m = List.find (fun m -> m.name = n) metrics in
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string n) m.value (json_string m.unit_))
         names)
  in
  let all =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s, \"note\": %s}" (json_string m.name) m.value
             (json_string m.unit_) (json_string m.note))
         metrics)
  in
  let oc = open_out (stem ^ ".json") in
  Printf.fprintf oc "{\"provenance\": {%s}, \"correct\": %b, \"check_failures\": [%s], \"metrics\": {%s}}\n"
    (String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) (List.rev !provenance)))
    correct
    (String.concat ", " (List.map json_string (List.rev !check_failures)))
    all;
  close_out oc;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 !attempted) !failed
    (pick (if traced then per_layer else end_to_end));
  exit (if correct then 0 else 1)
