(* In-memory spans recorded around the benchmark's own calls into each
   layer, plus counter deltas taken at the same boundaries.  Nothing is
   written until [write] runs at exit.  With tracing off, [span] is a plain
   call. *)

type span = {
  id : int;
  parent : int;  (** 0 for a top-level span *)
  name : string;  (** "<layer>.<what>", e.g. "rl.zero" *)
  req : string;  (** request id: GRPO stage, dataset seed, serve arrival *)
  t0 : float;
  t1 : float;
  deltas : (string * float) list;  (** counter changes across the span *)
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack = ref [ 0 ]

let fresh_id () =
  incr next_id;
  !next_id

let current () = List.hd !stack

(* [probe] snapshots the counters of interest; the span records how much
   each one moved while [f] ran. *)
let span ?(req = "") ?(probe = fun () -> []) name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = current () in
    let before = probe () in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        stack := List.tl !stack;
        let deltas =
          List.map2 (fun (k, a) (k', b) -> assert (k = k'); (k, b -. a)) before (probe ())
        in
        spans := { id; parent; name; req; t0; t1; deltas } :: !spans)
      f
  end

(* A span whose interval was measured elsewhere (a serve request, timed from
   its due instant to its resolution). *)
let record ?(req = "") ~t0 ~t1 name =
  if !on then
    spans := { id = fresh_id (); parent = current (); name; req; t0; t1; deltas = [] } :: !spans

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Length of the union of intervals, clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (acc, Some (ca, Float.max cb b)) else (acc +. (cb -. ca), Some (a, b)))
      (0., None) ivs
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of each span: its duration minus the part its children cover. *)
let self_times (all : span list) : (span * float) list =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) all;
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)))
    all

(* Self seconds summed by layer. *)
let layer_self (all : span list) : (string * float) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      let l = layer s.name in
      Hashtbl.replace tbl l (self +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    (self_times all);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let total name = List.fold_left (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc) 0. !spans

let delta name key =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. Option.value ~default:0. (List.assoc_opt key s.deltas) else acc)
    0. !spans

let write path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"req\": %S, \"start\": %.6f, \"end\": %.6f, \"self_s\": %.6f, \"deltas\": {%s}}\n"
        s.id s.parent s.name s.req s.t0 s.t1 self
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) s.deltas)))
    (self_times (List.rev !spans));
  close_out oc
