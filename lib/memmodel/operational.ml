module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module Model = Perple_litmus.Model

(* Immutable machine state; used directly as a memoisation key.  Buffers
   are oldest-first; memory and registers are sorted association lists so
   that structurally equal states compare equal. *)
type state = {
  pcs : int list;
  buffers : (string * int) list list;
  memory : (string * int) list;
  regs : ((int * int) * int) list;
}

let assoc_set key value assoc =
  let rec go = function
    | [] -> [ (key, value) ]
    | (k, _) :: rest when k = key -> (key, value) :: rest
    | (k, v) :: rest when k > key -> (key, value) :: (k, v) :: rest
    | kv :: rest -> kv :: go rest
  in
  go assoc

let rec list_set i value = function
  | [] -> invalid_arg "list_set"
  | x :: rest -> if i = 0 then value :: rest else x :: list_set (i - 1) value rest

(* Newest buffered value for a location, if any (store forwarding). *)
let forwarded buffer x =
  List.fold_left
    (fun acc (y, v) -> if y = x then Some v else acc)
    None buffer

let initial_state test =
  let nthreads = Ast.thread_count test in
  {
    pcs = List.init nthreads (fun _ -> 0);
    buffers = List.init nthreads (fun _ -> []);
    memory =
      List.sort compare
        (List.map (fun x -> (x, Ast.initial_value test x)) (Ast.locations test));
    regs = [];
  }

let successors model test state =
  let nthreads = Ast.thread_count test in
  let next = ref [] in
  let add s = next := s :: !next in
  for t = 0 to nthreads - 1 do
    let pc = List.nth state.pcs t in
    let program = test.Ast.threads.(t) in
    let buffer = List.nth state.buffers t in
    (* Instruction step. *)
    if pc < Array.length program then begin
      let bump () = list_set t (pc + 1) state.pcs in
      match program.(pc) with
      | Ast.Store (x, a) -> (
        match (model : Model.t) with
        | Sc ->
          add
            {
              state with
              pcs = bump ();
              memory = assoc_set x a state.memory;
            }
        | Tso | Pso ->
          add
            {
              state with
              pcs = bump ();
              buffers = list_set t (buffer @ [ (x, a) ]) state.buffers;
            })
      | Ast.Load (r, x) ->
        let value =
          match (model, forwarded buffer x) with
          | (Tso | Pso), Some v -> v
          | (Tso | Pso), None | Sc, _ ->
            Option.value ~default:0 (List.assoc_opt x state.memory)
        in
        add
          {
            state with
            pcs = bump ();
            regs = assoc_set (t, r) value state.regs;
          }
      | Ast.Mfence | Ast.Drain ->
        (* Enabled only once the buffer is empty; drains below provide the
           interleavings in which it empties first.  SFENCE-as-drain has the
           same volatile semantics as a full fence here; its persistency
           effect lives in {!Persistency}. *)
        if buffer = [] then add { state with pcs = bump () }
      | Ast.Flush _ ->
        (* Volatile no-op: cache-line writeback does not change the coherent
           value of the location. *)
        add { state with pcs = bump () }
    end;
    (* Drain step.  TSO drains strictly in FIFO order; PSO keeps FIFO
       order only per location, so the oldest entry of every distinct
       location is drainable (stores to different locations can take
       effect out of program order). *)
    (match (model, buffer) with
    | _, [] -> ()
    | (Sc | Tso), (x, v) :: rest ->
      add
        {
          state with
          buffers = list_set t rest state.buffers;
          memory = assoc_set x v state.memory;
        }
    | Pso, _ ->
      let drainable =
        List.sort_uniq compare (List.map fst buffer)
      in
      List.iter
        (fun x ->
          (* Remove the oldest entry for location x. *)
          let removed = ref false in
          let v = ref 0 in
          let rest =
            List.filter
              (fun (y, w) ->
                if (not !removed) && y = x then begin
                  removed := true;
                  v := w;
                  false
                end
                else true)
              buffer
          in
          add
            {
              state with
              buffers = list_set t rest state.buffers;
              memory = assoc_set x !v state.memory;
            })
        drainable)
  done;
  !next

let is_final test state =
  List.for_all (fun b -> b = []) state.buffers
  &&
  let lengths =
    Array.to_list (Array.map Array.length test.Ast.threads)
  in
  List.for_all2 (fun pc len -> pc >= len) state.pcs lengths

let explore model test =
  let visited = Hashtbl.create 1024 in
  let finals = Hashtbl.create 64 in
  let rec visit state =
    if not (Hashtbl.mem visited state) then begin
      Hashtbl.replace visited state ();
      if is_final test state then Hashtbl.replace finals state.regs ()
      else List.iter visit (successors model test state)
    end
  in
  visit (initial_state test);
  (visited, finals)

let outcome_of_regs regs =
  List.map
    (fun ((thread, reg), value) -> { Outcome.thread; reg; value })
    regs

let reachable_outcomes model test =
  let _, finals = explore model test in
  let outcomes =
    Hashtbl.fold (fun regs () acc -> outcome_of_regs regs :: acc) finals []
  in
  List.sort_uniq Outcome.compare outcomes

let condition_reachable model test ~partial =
  let _, finals = explore model test in
  Hashtbl.fold
    (fun regs () acc ->
      acc || Outcome.matches ~partial (outcome_of_regs regs))
    finals false

let condition_always model test ~partial =
  let _, finals = explore model test in
  Hashtbl.fold
    (fun regs () acc ->
      acc && Outcome.matches ~partial (outcome_of_regs regs))
    finals true

let condition_verdict model test =
  (* [Outcome.of_condition] rejects [forall]; convert the atoms here. *)
  let rec partial_of_atoms = function
    | [] -> Ok []
    | Ast.Loc_eq (x, _) :: _ ->
      Error
        (Printf.sprintf
           "condition constrains shared location [%s]; not expressible over \
            registers"
           x)
    | Ast.Reg_eq (thread, reg, value) :: rest ->
      Result.map
        (fun tail -> { Outcome.thread; reg; value } :: tail)
        (partial_of_atoms rest)
  in
  match partial_of_atoms test.Ast.condition.Ast.atoms with
  | Error _ as e -> e
  | Ok partial -> (
    match test.Ast.condition.Ast.quantifier with
    | Ast.Forall -> Ok (condition_always model test ~partial)
    | Ast.Exists | Ast.Not_exists ->
      Ok (condition_reachable model test ~partial))

let target_allowed model test =
  match Outcome.of_condition test with
  | Error _ as e -> e
  | Ok partial -> Ok (condition_reachable model test ~partial)

let state_count model test =
  let visited, _ = explore model test in
  Hashtbl.length visited
