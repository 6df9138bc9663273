module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Model = Perple_litmus.Model
open Event_graph

(* A candidate execution: for each read, an rf source (Some write event or
   None for the initial value); for each location, a coherence order over
   its writes (as an ordered list of events). *)
type candidate = {
  rf : (int * event option) list;  (* read id -> source *)
  ws : (string * event list) list;
}

let permutations list =
  let rec insert x = function
    | [] -> [ [ x ] ]
    | y :: rest as l ->
      (x :: l) :: List.map (fun r -> y :: r) (insert x rest)
  in
  List.fold_left
    (fun perms x -> List.concat_map (insert x) perms)
    [ [] ] list

let candidates test =
  let events = events_of_test test in
  let writes_to x = writes_to events x in
  let reads = reads events in
  let rf_choices =
    List.map
      (fun e ->
        let x = Option.get (location e.kind) in
        List.map (fun w -> (e.id, Some w)) (writes_to x) @ [ (e.id, None) ])
      reads
  in
  let rf_assignments =
    List.fold_right
      (fun choices acc ->
        List.concat_map (fun c -> List.map (fun rest -> c :: rest) acc) choices)
      rf_choices [ [] ]
  in
  let locations = Ast.locations test in
  let ws_choices =
    List.fold_right
      (fun x acc ->
        let perms = permutations (writes_to x) in
        List.concat_map
          (fun perm -> List.map (fun rest -> (x, perm) :: rest) acc)
          perms)
      locations [ [] ]
  in
  List.concat_map
    (fun rf -> List.map (fun ws -> { rf; ws }) ws_choices)
    rf_assignments

let candidate_count test = List.length (candidates test)

(* Derived relations as edge lists over event ids. *)

let ws_edges candidate =
  List.concat_map
    (fun (_, order) ->
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a.id, b.id) :: pairs rest
        | [ _ ] | [] -> []
      in
      pairs order)
    candidate.ws

let rf_edges candidate =
  List.filter_map
    (fun (read_id, src) ->
      Option.map (fun w -> (w.id, read_id)) src)
    candidate.rf

(* fr: a read r with source s precedes every write ws-after s; a read from
   the initial value precedes every write to its location. *)
let fr_edges candidate events =
  List.concat_map
    (fun (read_id, src) ->
      let read = List.find (fun e -> e.id = read_id) events in
      let x = Option.get (location read.kind) in
      let order = List.assoc x candidate.ws in
      let later =
        match src with
        | None -> order
        | Some w ->
          let rec after = function
            | [] -> []
            | e :: rest -> if e.id = w.id then rest else after rest
          in
          after order
      in
      List.map (fun w -> (read_id, w.id)) later)
    candidate.rf

let access e = if is_write e then Model.W else Model.R

(* Uniproc, then the model axiom: acyclicity of
   [ppo ∪ rfe ∪ ws ∪ fr], where ppo keeps the program-order pairs of
   memory events that {!Model.preserved} keeps or a fence separates. *)
let valid model ~events candidate =
  let n = List.length events in
  let ws = ws_edges candidate in
  let rf = rf_edges candidate in
  let fr = fr_edges candidate events in
  let po = po_pairs events in
  let po_loc =
    List.filter_map
      (fun (a, b) ->
        match (location a.kind, location b.kind) with
        | Some x, Some y when x = y -> Some (a.id, b.id)
        | _ -> None)
      po
  in
  let fence_between a b =
    List.exists
      (fun f ->
        is_fence f && f.thread = a.thread && a.po < f.po && f.po < b.po)
      events
  in
  let ppo =
    List.filter_map
      (fun (a, b) ->
        if
          is_mem a && is_mem b
          && (Model.preserved model (access a) (access b)
                ~same_loc:(location a.kind = location b.kind)
             || fence_between a b)
        then Some (a.id, b.id)
        else None)
      po
  in
  let rfe =
    List.filter_map
      (fun (read_id, src) ->
        match src with
        | Some w ->
          let read = List.find (fun e -> e.id = read_id) events in
          if w.thread <> read.thread then Some (w.id, read_id) else None
        | None -> None)
      candidate.rf
  in
  acyclic (po_loc @ ws @ rf @ fr) n && acyclic (ppo @ rfe @ ws @ fr) n

let read_value test candidate read =
  let x = Option.get (location read.kind) in
  match List.assoc read.id candidate.rf with
  | Some w -> (
    match w.kind with Write (_, a) -> a | Read _ | Fence | Flush _ -> 0)
  | None -> Ast.initial_value test x

let outcome_of_candidate test candidate =
  let events = events_of_test test in
  let bindings =
    List.filter_map
      (fun e ->
        match e.kind with
        | Read (reg, _) ->
          Some
            {
              Outcome.thread = e.thread;
              reg;
              value = read_value test candidate e;
            }
        | Write _ | Fence | Flush _ -> None)
      events
  in
  List.sort Outcome.(fun a b ->
      match compare [a] [b] with c -> c)
    bindings

let reachable_outcomes model test =
  let events = events_of_test test in
  let outcomes =
    List.filter_map
      (fun c ->
        if valid model ~events c then Some (outcome_of_candidate test c)
        else None)
      (candidates test)
  in
  List.sort_uniq Outcome.compare outcomes

let final_memory test candidate x =
  match List.assoc_opt x candidate.ws with
  | Some order when order <> [] -> (
    match (List.nth order (List.length order - 1)).kind with
    | Write (_, a) -> a
    | Read _ | Fence | Flush _ -> Ast.initial_value test x)
  | _ -> Ast.initial_value test x

let condition_satisfied test candidate =
  let outcome = outcome_of_candidate test candidate in
  List.for_all
    (fun atom ->
      match atom with
      | Ast.Reg_eq (thread, reg, value) ->
        Outcome.matches ~partial:[ { Outcome.thread; reg; value } ] outcome
      | Ast.Loc_eq (x, v) -> final_memory test candidate x = v)
    test.Ast.condition.atoms

let condition_reachable model test =
  let events = events_of_test test in
  List.exists
    (fun c -> valid model ~events c && condition_satisfied test c)
    (candidates test)
