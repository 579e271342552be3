(* Order statistics and open-loop request accounting shared by the
   workloads.  Everything here is pure, so the tests can pin it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank (1-based) of the [p]-th percentile of [n] samples, in
   integer arithmetic so whole percentiles never suffer float rounding. *)
let rank n p = max 1 (min n (((p * n) + 99) / 100))

type tail = { pct : int; value : float; beyond : int; n : int }

let min_beyond = 10

(* The tail of a timing: the highest whole percentile (at most 99, at least
   50) that still has [min_beyond] samples above its rank.  [None] when the
   samples are too few for even the median to qualify. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let rec go p =
    if p < 50 then None
    else
      let k = rank n p in
      if n - k >= min_beyond then Some { pct = p; value = a.(k - 1); beyond = n - k; n }
      else go (p - 1)
  in
  go 99

let tail_value xs = match tail xs with Some t -> t.value | None -> nan

let pp_tail ~unit ~scale = function
  | Some t -> Printf.sprintf "p%d %.3f %s (n=%d, %d beyond)" t.pct (t.value *. scale) unit t.n t.beyond
  | None -> "n/a (fewer than 20 samples)"

(* ------------------------------------------------------------------ *)
(* Open-loop requests, timed from the instant each was due. *)

type outcome =
  | Answered of { conclusive : bool; matches : bool }
      (** a verdict; [matches] is the known-answer check of a conclusive one *)
  | Refused  (** rejected at admission, shed, or expired in the queue *)

type request = {
  due : float;  (** scheduled send instant *)
  sent : float;  (** when the generator actually submitted it *)
  resolved : float;  (** when its outcome became available *)
  interactive : bool;
  outcome : outcome;
}

let latency r = r.resolved -. r.due
let lateness r = Float.max 0. (r.sent -. r.due)

(* ok: a conclusive, correct verdict within the class budget counted from
   the due instant.  A refusal never counts, however fast it came back. *)
let ok ~budget r =
  match r.outcome with
  | Answered { conclusive = true; matches = true } -> latency r <= budget
  | Answered _ | Refused -> false

let share p xs =
  match xs with
  | [] -> nan
  | _ -> float_of_int (List.length (List.filter p xs)) /. float_of_int (List.length xs)

(* Latencies of the requests that got a verdict: refusals have no latency
   (they are counted against the ok share instead). *)
let answered_latencies rs =
  List.filter_map
    (fun r -> match r.outcome with Answered _ -> Some (latency r) | Refused -> None)
    rs
