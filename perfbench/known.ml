(* The known answer of every shape the serve workload's generator emits:
   the generator builds each pair so its verdict is fixed by construction. *)

module Alive = Veriopt_alive.Alive

let expected = function
  | "mul-chain" | "mul-comm" | "easy" | "count" -> Some Alive.Equivalent
  | "wrong" -> Some Alive.Semantic_error
  | _ -> None

type check = Match | Inconclusive | Mismatch | Unknown_shape

(* Syntax errors are never a right answer: every generated pair parses. *)
let check label (category : Alive.category) =
  match (expected label, category) with
  | None, _ -> Unknown_shape
  | Some _, Alive.Inconclusive -> Inconclusive
  | Some want, got -> if want = got then Match else Mismatch
