module Ast = Perple_litmus.Ast
module Config = Perple_sim.Config
module Model = Perple_litmus.Model
module Solver = Perple_memmodel.Solver
module Perpetual = Perple_harness.Perpetual
module Machine = Perple_sim.Machine
module Program = Perple_sim.Program

(* Whole-trace verification of a perpetual run: every recorded iteration's
   loads are decoded back to the exact store that produced them (the
   sequenced values make reads-from unambiguous), the run unrolls into one
   flat execution, and {!Solver.check} checks it against the model's
   axioms directly — no per-iteration outcome extraction, no enumeration.
   This is the classification the report layer trusts for runs far beyond
   the operational enumerator's reach. *)

let spec_model = function
  | Config.Sc -> Model.Sc
  | Config.Tso -> Model.Tso
  | Config.Pso -> Model.Pso
  (* The planted bugs are deviations from TSO; their traces are judged
     against the honest model, which is how the checker detects them. *)
  | Config.Tso_store_reorder | Config.Tso_fence_ignored -> Model.Tso

exception Undecodable of string

let undecodable ~thread ~iteration ~slot value why =
  raise
    (Undecodable
       (Printf.sprintf "thread %d iteration %d slot %d: value %d %s" thread
          iteration slot value why))

(* Per-thread instruction skeleton: flushes are ordering-irrelevant in the
   volatile axioms (no rf/ws/fr can touch them), so they are dropped and
   the remaining instructions renumbered densely.  Locations are the
   image's interned ids. *)
type skeleton = {
  kinds : Solver.ekind array;
  locs : int array;
  read_pos : int array;  (* load slot -> position *)
  store_locs : int array;  (* the stores alone, in order *)
  pos : int array;  (* instruction index -> position *)
  store_pos : int array;  (* instruction index -> position among stores *)
}

let skeleton loc_id program =
  let m = Array.length program in
  let pos = Array.make m (-1) and store_pos = Array.make m (-1) in
  let kept = ref [] and reads = ref [] and stores = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun i instr ->
      let keep kind x =
        pos.(i) <- !next;
        incr next;
        kept := (kind, x) :: !kept
      in
      match instr with
      | Ast.Store (x, _) ->
        store_pos.(i) <- List.length !stores;
        stores := loc_id x :: !stores;
        keep Solver.Write (loc_id x)
      | Ast.Load (_, x) ->
        reads := !next :: !reads;
        keep Solver.Read (loc_id x)
      | Ast.Mfence | Ast.Drain -> keep Solver.Fence (-1)
      | Ast.Flush _ -> ())
    program;
  let ordered l = Array.of_list (List.rev l) in
  let kept = ordered !kept in
  {
    kinds = Array.map fst kept;
    locs = Array.map snd kept;
    read_pos = ordered !reads;
    store_locs = ordered !stores;
    pos;
    store_pos;
  }

(* The run decodes in two passes over [bufs]: the first finds how far
   each writer's observed stores reach (its horizon), which sizes the
   execution; the second fills it.  Ids are thread-major: a thread's
   retired iterations in full, then store-only iterations it had not
   retired but another thread observed.  A writer can have executed
   stores only of iterations up to the one it was in when the run ended
   — its retired count — so no value can make the trace longer than the
   run.  Returns the execution with the label that names an event by its
   thread, iteration and id. *)
let unroll (conv : Convert.t) (run : Perpetual.run) =
  let test = conv.Convert.test in
  let names = conv.Convert.image.Program.location_names in
  let loc_id = Program.location_id conv.Convert.image in
  let skel = Array.map (skeleton loc_id) test.Ast.threads in
  let nthreads = Array.length skel in
  let retired_arr = run.Perpetual.machine.Machine.iterations_retired in
  let retired t = if t < Array.length retired_arr then retired_arr.(t) else 0 in
  (* [f t i s store iteration] for every load that read a store's value
     (initial-value loads need nothing), or [Undecodable]. *)
  let iter_sources f =
    for t = 0 to nthreads - 1 do
      let r = run.Perpetual.t_reads.(t) in
      let buf = run.Perpetual.bufs.(t) in
      for i = 0 to retired t - 1 do
        for s = 0 to r - 1 do
          let value = buf.((r * i) + s) in
          if value <> 0 then begin
            let x = skel.(t).locs.(skel.(t).read_pos.(s)) in
            match Convert.member conv ~loc_id:x ~value with
            | None ->
              undecodable ~thread:t ~iteration:i ~slot:s value
                ("decodes to no store of [" ^ names.(x) ^ "]")
            | Some store ->
              let it = Convert.iteration_of store ~value in
              let w = store.Convert.thread in
              if it > retired w then
                undecodable ~thread:t ~iteration:i ~slot:s value
                  (Printf.sprintf
                     "names iteration %d of thread %d, which retired only %d" it
                     w (retired w));
              f t i s store it
          end
        done
      done
    done
  in
  let horizon = Array.init nthreads retired in
  iter_sources (fun _ _ _ store it ->
      let w = store.Convert.thread in
      if it + 1 > horizon.(w) then horizon.(w) <- it + 1);
  let per_iter t = Array.length skel.(t).kinds in
  let stores_per_iter t = Array.length skel.(t).store_locs in
  let thread_start = Array.make (nthreads + 1) 0 in
  for t = 0 to nthreads - 1 do
    thread_start.(t + 1) <-
      thread_start.(t)
      + (retired t * per_iter t)
      + ((horizon.(t) - retired t) * stores_per_iter t)
  done;
  let n = thread_start.(nthreads) in
  let kind = Array.make n Solver.Write and loc = Array.make n (-1) in
  let rf = Array.make n (-1) in
  for t = 0 to nthreads - 1 do
    let sk = skel.(t) in
    let id = ref thread_start.(t) in
    for _ = 1 to retired t do
      Array.blit sk.kinds 0 kind !id (per_iter t);
      Array.blit sk.locs 0 loc !id (per_iter t);
      id := !id + per_iter t
    done;
    (* an unretired iteration observed through another thread's read:
       only its stores are certain to have executed *)
    while !id < thread_start.(t + 1) do
      Array.blit sk.store_locs 0 loc !id (stores_per_iter t);
      id := !id + stores_per_iter t
    done
  done;
  iter_sources (fun t i s store it ->
      let w = store.Convert.thread and j = store.Convert.instr_index in
      rf.(thread_start.(t) + (i * per_iter t) + skel.(t).read_pos.(s)) <-
        (if it < retired w then
           thread_start.(w) + (it * per_iter w) + skel.(w).pos.(j)
         else
           thread_start.(w)
           + (retired w * per_iter w)
           + ((it - retired w) * stores_per_iter w)
           + skel.(w).store_pos.(j)));
  let label id =
    let t = ref 0 in
    while thread_start.(!t + 1) <= id do
      incr t
    done;
    let t = !t in
    let j = id - thread_start.(t) and full = retired t * per_iter t in
    let iteration =
      if j < full then j / per_iter t
      else retired t + ((j - full) / stores_per_iter t)
    in
    Printf.sprintf "thread %d iteration %d event %d" t iteration id
  in
  ({ Solver.locations = names; thread_start; kind; loc; rf }, label)

let execution conv run = fst (unroll conv run)

let trace_of_run conv run =
  let e = execution conv run in
  Array.init
    (Array.length e.Solver.thread_start - 1)
    (fun t ->
      let lo = e.Solver.thread_start.(t) in
      Array.init
        (e.Solver.thread_start.(t + 1) - lo)
        (fun j ->
          let id = lo + j in
          match e.Solver.kind.(id) with
          | Solver.Write ->
            Solver.T_write e.Solver.locations.(e.Solver.loc.(id))
          | Solver.Read ->
            let src = e.Solver.rf.(id) in
            Solver.T_read
              ( e.Solver.locations.(e.Solver.loc.(id)),
                if src < 0 then None else Some src )
          | Solver.Fence -> Solver.T_fence
          | Solver.Flush -> assert false (* dropped from the skeleton *)))

let verify ~model conv run =
  match unroll conv run with
  | e, label -> Solver.check ~label model e
  | exception Undecodable msg ->
    {
      Solver.consistent = false;
      events = 0;
      violation = Some ("undecodable read: " ^ msg);
      decisions = 0;
      backtracks = 0;
    }
