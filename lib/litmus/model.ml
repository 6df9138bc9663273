type t = Sc | Tso | Pso

let all = [ Sc; Tso; Pso ]

let to_string = function Sc -> "SC" | Tso -> "TSO" | Pso -> "PSO"

type access = W | R

let preserved m a b ~same_loc =
  match (m, a, b) with
  | Sc, _, _ | _, R, _ -> true
  | (Tso | Pso), W, R -> false
  | Tso, W, W -> true
  | Pso, W, W -> same_loc

(* Where writes go: the read/fence chain, one write chain, or one per
   location. *)
let write_split m =
  if preserved m W R ~same_loc:false then `Shared
  else if preserved m W W ~same_loc:false then `One
  else `Per_location

let chain_count m ~nlocs =
  match write_split m with
  | `Shared -> 1
  | `One -> 2
  | `Per_location -> 1 + nlocs

let write_chain m ~loc =
  match write_split m with
  | `Shared -> 0
  | `One -> 1
  | `Per_location -> 1 + loc
