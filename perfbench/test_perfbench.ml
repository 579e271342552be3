(* Tests for the benchmark's own helpers: the tail rule, open-loop latency
   accounting, span self time and the serve workload's known answers. *)

module Stats = Perfbench.Stats
module Known = Perfbench.Known
module Trace = Perfbench.Trace
module Alive = Veriopt_alive.Alive
module Workload = Veriopt_serve.Workload

let close = Alcotest.(check (float 1e-9))
let floats n = List.init n (fun i -> float_of_int (n - i))

let test_tail () =
  (match Stats.tail (floats 100) with
  | Some t ->
    Alcotest.(check int) "pct" 90 t.Stats.pct;
    close "value" 90. t.Stats.value;
    Alcotest.(check int) "beyond" 10 t.Stats.beyond
  | None -> Alcotest.fail "100 samples have a tail");
  (match Stats.tail (floats 1000) with
  | Some t ->
    Alcotest.(check int) "p99 of 1000" 99 t.Stats.pct;
    close "value" 990. t.Stats.value
  | None -> Alcotest.fail "1000 samples have a tail");
  (match Stats.tail (floats 20) with
  | Some t -> Alcotest.(check int) "20 samples: the median" 50 t.Stats.pct
  | None -> Alcotest.fail "20 samples reach the median");
  Alcotest.(check bool) "19 samples: no tail" true (Stats.tail (floats 19) = None);
  close "median of even count" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

(* The generator stalls for 40 ms: the second and third requests go out
   late.  Timed from submission the stall would be invisible; timed from the
   due instant it shows, and a refusal never counts as a fast answer. *)
let test_due_time () =
  let answer = Stats.Answered { conclusive = true; matches = true } in
  let r1 = { Stats.due = 0.; sent = 0.; resolved = 0.005; interactive = true; outcome = answer } in
  let r2 = { Stats.due = 0.01; sent = 0.05; resolved = 0.055; interactive = true; outcome = answer } in
  let r3 = { Stats.due = 0.02; sent = 0.05; resolved = 0.05; interactive = true; outcome = Stats.Refused } in
  let r4 =
    {
      Stats.due = 0.03;
      sent = 0.05;
      resolved = 0.06;
      interactive = false;
      outcome = Stats.Answered { conclusive = false; matches = false };
    }
  in
  close "latency from due" 0.045 (Stats.latency r2);
  close "generator lateness" 0.04 (Stats.lateness r2);
  close "never negative lateness" 0. (Stats.lateness { r1 with Stats.sent = -1. });
  Alcotest.(check bool) "on time" true (Stats.ok ~budget:0.1 r2);
  Alcotest.(check bool) "the stall makes it late" false (Stats.ok ~budget:0.02 r2);
  Alcotest.(check bool) "a refusal is never ok" false (Stats.ok ~budget:10. r3);
  Alcotest.(check bool) "inconclusive is never ok" false (Stats.ok ~budget:10. r4);
  let lat = Stats.answered_latencies [ r1; r2; r3; r4 ] in
  Alcotest.(check int) "refusals have no latency" 3 (List.length lat);
  close "ok share" 0.5 (Stats.share (Stats.ok ~budget:0.1) [ r1; r2; r3; r4 ])

let test_self_time () =
  let span id parent t0 t1 = { Trace.id; parent; name = "x.y"; req = ""; t0; t1; deltas = [] } in
  let all = [ span 1 0 0. 10.; span 2 1 1. 3.; span 3 1 2. 5.; span 4 1 7. 8.; span 5 4 7.5 9. ] in
  let self = List.map (fun (s, v) -> (s.Trace.id, v)) (Trace.self_times all) in
  close "parent minus the union of its children" 5. (List.assoc 1 self);
  close "child clipped to its own interval" 0.5 (List.assoc 4 self);
  close "by layer" 12. (List.assoc "x" (Trace.layer_self all))

let test_known_answers () =
  Alcotest.(check bool) "wrong is not equivalent" true (Known.expected "wrong" = Some Alive.Semantic_error);
  Alcotest.(check bool) "mismatch" true (Known.check "easy" Alive.Semantic_error = Known.Mismatch);
  Alcotest.(check bool) "syntax error is a mismatch" true (Known.check "count" Alive.Syntax_error = Known.Mismatch);
  Alcotest.(check bool) "inconclusive" true (Known.check "mul-chain" Alive.Inconclusive = Known.Inconclusive);
  Alcotest.(check bool) "unknown shape" true (Known.check "mystery" Alive.Equivalent = Known.Unknown_shape);
  (* every shape the generator emits has a known answer, and the cheap ones
     verify to it *)
  let seen = Hashtbl.create 8 in
  for index = 0 to 499 do
    let q = Workload.make ~seed:3 ~index in
    let l = q.Workload.w_label in
    if Known.expected l = None then Alcotest.failf "shape %s has no known answer" l;
    if (not (Hashtbl.mem seen l)) && List.mem l [ "easy"; "wrong"; "count" ] then begin
      Hashtbl.replace seen l ();
      let v = Alive.verify_funcs q.Workload.w_m ~src:q.Workload.w_src ~tgt:q.Workload.w_tgt in
      if Known.check l v.Alive.category <> Known.Match then Alcotest.failf "%s: %s" l v.Alive.message
    end
  done;
  Alcotest.(check int) "cheap shapes all checked" 3 (Hashtbl.length seen)

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
          Alcotest.test_case "due-time latency accounting" `Quick test_due_time;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "known-answer table" `Quick test_known_answers;
        ] );
    ]
