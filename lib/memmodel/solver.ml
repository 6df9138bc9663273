module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome
module E = Event_graph

(* A constraint formulation of the axiomatic model (see docs/internals.md,
   "Solver backend").  Executions are not enumerated: the reads-from choice
   for each load is a variable, the coherence order of each location is a
   variable, and validity is acyclicity of two graphs — uniproc
   [po-loc ∪ rf ∪ ws ∪ fr] and the per-model graph.  When every location
   has one writer thread, coherence is that thread's program order and no
   graph is built: uniproc is a coherence-shape scan and the model axiom a
   sweep over per-thread program-order chains, both linear.  Otherwise the
   two graphs are maintained incrementally while propagation orients
   coherence pairs forced by reachability (the Chakraborty-style polynomial
   fast path) and search branches only on genuinely free choices. *)

(* ---------- flat executions ---------- *)

(* Litmus tests and whole perpetual-run traces share one kernel over flat
   arrays: ids are thread-major, program order is index order within a
   thread's range, and locations are dense ids. *)
type ekind = Write | Read | Fence | Flush

type execution = {
  locations : string array;
  thread_start : int array;
  kind : ekind array;
  loc : int array;
  rf : int array;
}

type verdict = {
  consistent : bool;
  events : int;
  violation : string option;  (* which acyclicity axiom broke, and where *)
  decisions : int;            (* free coherence choices explored *)
  backtracks : int;           (* abandoned branches *)
}

(* Dense location ids in first-use order.  Executions touch a handful of
   locations, so a scan beats hashing. *)
let interner () =
  let names = ref [||] in
  let intern x =
    let a = !names in
    let rec find i =
      if i = Array.length a then begin
        names := Array.append a [| x |];
        i
      end
      else if String.equal a.(i) x then i
      else find (i + 1)
    in
    find 0
  in
  (intern, fun () -> !names)

let thread_of ex id =
  let t = ref 0 in
  while ex.thread_start.(!t + 1) <= id do
    incr t
  done;
  !t

(* How a violation names an event unless the caller knows better. *)
let default_label ex id =
  Printf.sprintf "thread %d event %d" (thread_of ex id) id

(* Validates every rf source and finds each location's writer thread:
   [-1] when nothing writes it, [-2] when several threads do. *)
let writer_threads ex =
  let n = Array.length ex.kind in
  let writer = Array.make (Array.length ex.locations) (-1) in
  for t = 0 to Array.length ex.thread_start - 2 do
    for id = ex.thread_start.(t) to ex.thread_start.(t + 1) - 1 do
      match ex.kind.(id) with
      | Write ->
        let x = ex.loc.(id) in
        if writer.(x) = -1 then writer.(x) <- t
        else if writer.(x) <> t then writer.(x) <- -2
      | Read ->
        let w = ex.rf.(id) in
        if
          w <> -1
          && (w < 0 || w >= n || ex.kind.(w) <> Write
             || ex.loc.(w) <> ex.loc.(id))
        then invalid_arg "Solver: rf source is not a same-location write"
      | Fence | Flush -> ()
    done
  done;
  writer

(* ---------- single-writer certification ---------- *)

exception Shape of string

(* Uniproc when every location has one writer thread.  Its coherence order
   is that thread's program order — id order, after the initial value
   (-1) — so acyclicity of [po-loc ∪ rf ∪ co ∪ fr] is the absence of the
   CoRR, CoWR and CoRW shapes (Alglave, Maranget and Tautschnig, "Herding
   Cats"; CoWW cannot occur).  One pass per thread finds them: [seen.(x)]
   is the co-latest write of [x] the thread has performed or observed so
   far.  A read must not go back before it; and when the thread writes
   [x] itself, every co-later write is its own po-later one, so the read
   must take exactly [seen.(x)]. *)
let coherence_scan ex ~writer ~label =
  let seen = Array.make (Array.length ex.locations) (-1) in
  let source w = if w < 0 then "the initial value" else label w in
  let fail r fmt =
    Printf.ksprintf
      (fun s ->
        raise
          (Shape
             (Printf.sprintf "cycle in uniproc graph: %s reads [%s] %s"
                (label r) ex.locations.(ex.loc.(r)) s)))
      fmt
  in
  try
    for t = 0 to Array.length ex.thread_start - 2 do
      Array.fill seen 0 (Array.length seen) (-1);
      for id = ex.thread_start.(t) to ex.thread_start.(t + 1) - 1 do
        match ex.kind.(id) with
        | Write -> seen.(ex.loc.(id)) <- id
        | Read ->
          let x = ex.loc.(id) and w = ex.rf.(id) in
          let s = seen.(x) in
          if w < s then
            if writer.(x) = t then
              fail id "from %s, coherence-before its own po-earlier write %s \
                       (CoWR)" (source w) (label s)
            else
              fail id "from %s, coherence-before %s, which a po-earlier read \
                       observed (CoRR)" (source w) (label s)
          else if w > s then
            if writer.(x) = t then begin
              (* [w] is an own write after [id]; name the first one *)
              let next = ref (id + 1) in
              while ex.kind.(!next) <> Write || ex.loc.(!next) <> x do
                incr next
              done;
              if !next = w then
                fail id "from its own po-later write %s (CoRW)" (label w)
              else
                fail id "from %s, coherence-after its own po-later write %s \
                         (CoRW)" (label w) (label !next)
            end
            else seen.(x) <- w
        | Fence | Flush -> ()
      done
    done;
    None
  with Shape m -> Some m

(* The model axiom when every location has one writer thread.  Each thread
   splits into program-order chains whose consecutive events the model
   graph orders — SC: one; TSO: reads and fences, and writes; PSO: reads
   and fences, and the writes of each location — and every other static
   edge of the graph ([static_edges] below) into a chain head is one of
   three conditions:
   - a ppo or fence edge from another chain of its thread: that chain's
     cursor has passed the head (a write waits for the po-earlier reads
     and fences, a TSO/PSO fence for the po-earlier writes);
   - rfe: the read's source write is done;
   - fr: a write waits until no reader of its predecessor write (or of
     the initial value, for a first write) is still pending.
   A head advances only once every edge into it comes from a done event,
   so advancing is a topological sort.  A sweep over all chains that
   advances nothing leaves every remaining head waiting on another, which
   is a cycle.  Worst case O(events × chains); beyond small per-thread
   tables, the only event-sized state is two int arrays: chain successors
   and pending-reader counts. *)
let chain_sweep ~(model : Operational.model) ex ~label =
  let kind = ex.kind and loc = ex.loc and rf = ex.rf in
  let ts = ex.thread_start in
  let n = Array.length kind and nlocs = Array.length ex.locations in
  let nthreads = Array.length ts - 1 in
  let k =
    match model with
    | Operational.Sc -> 1
    | Operational.Tso -> 2
    | Operational.Pso -> 1 + nlocs
  in
  (* an event's chain within its thread; TSO/PSO flushes are in none *)
  let lane id =
    match (model, kind.(id)) with
    | Operational.Sc, _ | _, (Read | Fence) -> 0
    | _, Flush -> -1
    | Operational.Tso, Write -> 1
    | Operational.Pso, Write -> 1 + loc.(id)
  in
  (* [cur.(t * k + j)]: the head of chain [j] of thread [t], or the
     thread's end once the chain is done; [next]: an event's successor in
     its chain.  [pending]: per write, its reads not yet done. *)
  let cur = Array.make (nthreads * k) 0 in
  let next = Array.make n 0 in
  let pending = Array.make n 0 and pending_init = Array.make nlocs 0 in
  for t = 0 to nthreads - 1 do
    let base = t * k in
    Array.fill cur base k ts.(t + 1);
    for id = ts.(t + 1) - 1 downto ts.(t) do
      if kind.(id) = Read then begin
        let w = rf.(id) in
        if w >= 0 then pending.(w) <- pending.(w) + 1
        else pending_init.(loc.(id)) <- pending_init.(loc.(id)) + 1
      end;
      let j = lane id in
      if j >= 0 then begin
        next.(id) <- cur.(base + j);
        cur.(base + j) <- id
      end
    done
  done;
  (* per (thread, location): the last done write, -1 before the first *)
  let last_write = Array.make (nthreads * nlocs) (-1) in
  let sc = model = Operational.Sc in
  (* the po-earlier events of the thread's other chains are done *)
  let po_done t h =
    let base = t * k in
    match kind.(h) with
    | Write -> sc || cur.(base) > h
    | Fence -> (
      match model with
      | Operational.Sc -> true
      | Operational.Tso -> cur.(base + 1) > h
      | Operational.Pso ->
        let rec done_from y =
          y = nlocs || (cur.(base + 1 + y) > h && done_from (y + 1))
        in
        done_from 0)
    | Read | Flush -> true
  in
  (* the write [h] of thread [t]: no read of the value it overwrites is
     pending *)
  let fr_done t h =
    let p = last_write.((t * nlocs) + loc.(h)) in
    (if p >= 0 then pending.(p) else pending_init.(loc.(h))) = 0
  in
  (* every edge into the head [h] of a chain of thread [t] is from a done
     event *)
  let ready t h =
    match kind.(h) with
    | Read ->
      let w = rf.(h) in
      w < 0
      || (ts.(t) <= w && w < ts.(t + 1))
      || cur.((thread_of ex w * k) + lane w) > w
    | Write -> po_done t h && fr_done t h
    | Fence -> po_done t h
    | Flush -> true
  in
  let advance c =
    let t = c / k and hi = ts.((c / k) + 1) in
    let start = cur.(c) in
    while cur.(c) < hi && ready t cur.(c) do
      let h = cur.(c) in
      (match kind.(h) with
      | Read ->
        let w = rf.(h) in
        if w >= 0 then pending.(w) <- pending.(w) - 1
        else pending_init.(loc.(h)) <- pending_init.(loc.(h)) - 1
      | Write -> last_write.((t * nlocs) + loc.(h)) <- h
      | Fence | Flush -> ());
      cur.(c) <- next.(h)
    done;
    cur.(c) <> start
  in
  let progress = ref true in
  while !progress do
    progress := false;
    for c = 0 to (nthreads * k) - 1 do
      if advance c then progress := true
    done
  done;
  let stuck = ref n in
  Array.iteri
    (fun c h -> if h < ts.((c / k) + 1) && h < !stuck then stuck := h)
    cur;
  if !stuck = n then None
  else begin
    let h = !stuck in
    let t = thread_of ex h in
    let on = Printf.sprintf "%s [%s]" in
    let what, why =
      match kind.(h) with
      | Read -> (on "read" ex.locations.(loc.(h)), "its source " ^ label rf.(h))
      | Write when not (po_done t h) ->
        (on "write" ex.locations.(loc.(h)), "po-earlier reads and fences")
      | Write ->
        let p = last_write.((t * nlocs) + loc.(h)) in
        ( on "write" ex.locations.(loc.(h)),
          "the readers of " ^ if p >= 0 then label p else "the initial value" )
      | Fence | Flush -> ("fence", "po-earlier writes")
    in
    Some
      (Printf.sprintf "cycle in %s graph: %s (%s) waits for %s"
         (Operational.model_to_string model)
         (label h) what why)
  end

(* ---------- graphs (search and reference) ---------- *)

(* A CSR adjacency under construction.  Generating the same edges twice
   builds it: the first round of [add]s counts out-degrees; after [seal],
   the second fills each node's segment back to front, leaving [off] at
   the segment starts. *)
type csr = {
  off : int array;  (* node -> first index of its successors in [dst] *)
  mutable dst : int array;
  mutable filling : bool;
}

let csr n = { off = Array.make (n + 1) 0; dst = [||]; filling = false }

let add c u v =
  if c.filling then begin
    let i = c.off.(u) - 1 in
    c.off.(u) <- i;
    c.dst.(i) <- v
  end
  else c.off.(u) <- c.off.(u) + 1

let add_to c u v = if v >= 0 then add c u v

let seal c =
  let n = Array.length c.off - 1 in
  for u = 1 to n - 1 do
    c.off.(u) <- c.off.(u) + c.off.(u - 1)
  done;
  if n > 0 then c.off.(n) <- c.off.(n - 1);
  c.dst <- Array.make c.off.(n) 0;
  c.filling <- true

let build_csrs cs gen =
  gen ();
  List.iter seal cs;
  gen ()

(* A graph is a CSR adjacency of its static edges (po chains, rf, fr) plus
   per-node lists of the coherence edges search adds and the trail takes
   back.  Graphs are built only when some location has writers on several
   threads, and for {!check_graphs}.  [vc] holds one vector clock per node
   over the coherence chains (each multi-writer location's per-thread
   write sequences): [vc.(v * nchains + c)] is the highest position in
   chain [c] of a write with a path to [v], which makes reachability from
   a chain write one lookup. *)
type graph = {
  gname : string;
  edges : csr;
  dyn : int list array;
  vc : int array;
}

(* Static edges of both graphs in one scan, emitted only up to transitive
   closure (all that acyclicity and reachability observe).  Uniproc:
   po-loc chains, rf, fr.  Model graph: po (SC) or reduced ppo ∪ fenced
   chains (TSO/PSO: reads and fences in order, writes in order — per
   location under PSO — and every read or fence before the next write),
   rfe (all of rf under SC), and the same fr.  fr is materialized as far
   as [rf] alone forces it: to the source's po-next same-location write,
   or, from the initial value, to every thread's first write of the
   location. *)
let static_edges ~(model : Operational.model) ex ~next_write ~first_write
    ~extra ~uni ~mg =
  let nlocs = Array.length ex.locations in
  let nthreads = Array.length ex.thread_start - 1 in
  let next_loc = Array.make nlocs (-1) in  (* next located event *)
  let next_wloc = Array.make nlocs (-1) in  (* next write (PSO) *)
  for t = 0 to nthreads - 1 do
    let lo = ex.thread_start.(t) and hi = ex.thread_start.(t + 1) in
    Array.fill next_loc 0 nlocs (-1);
    Array.fill next_wloc 0 nlocs (-1);
    let next_rf = ref (-1) and next_w = ref (-1) and next_f = ref (-1) in
    for id = hi - 1 downto lo do
      let x = ex.loc.(id) in
      let k = ex.kind.(id) in
      if k = Read then begin
        let w = ex.rf.(id) in
        if w >= 0 then begin
          add uni w id;
          if model = Operational.Sc || w < lo || w >= hi then add mg w id;
          let w' = next_write.(w) in
          if w' >= 0 then begin
            add uni id w';
            add mg id w'
          end
        end
        else
          for t' = 0 to nthreads - 1 do
            let w0 = first_write.((t' * nlocs) + x) in
            if w0 >= 0 then begin
              add uni id w0;
              add mg id w0
            end
          done
      end;
      if k <> Fence then begin
        add_to uni id next_loc.(x);
        next_loc.(x) <- id
      end;
      match (model, k) with
      | Operational.Sc, _ -> if id + 1 < hi then add mg id (id + 1)
      | _, Flush -> ()  (* not a memory event under TSO/PSO *)
      | Operational.Tso, (Read | Fence) ->
        add_to mg id !next_rf;
        add_to mg id !next_w;
        next_rf := id;
        if k = Fence then next_f := id
      | Operational.Tso, Write ->
        add_to mg id !next_w;
        add_to mg id !next_f;
        next_w := id
      | Operational.Pso, (Read | Fence) ->
        add_to mg id !next_rf;
        for y = 0 to nlocs - 1 do
          add_to mg id next_wloc.(y)
        done;
        next_rf := id;
        if k = Fence then next_f := id
      | Operational.Pso, Write ->
        add_to mg id next_wloc.(x);
        add_to mg id !next_f;
        next_wloc.(x) <- id
    done
  done;
  List.iter
    (fun (u, v) ->
      add uni u v;
      add mg u v)
    extra

(* ---------- solver state ---------- *)

(* Coherence for one multi-writer location: per-writer-thread chains of
   write ids (po-forced by uniproc) merged into one total order. *)
type merge = {
  mloc : string;
  chains : int array array;
  idx : int array;        (* next unmerged position per chain *)
  mutable last : int;     (* most recently merged write, -1 at start *)
  mutable remaining : int;
}

type state = {
  n : int;
  uni : graph;
  mg : graph;
  merges : merge list;
  nchains : int;
  chain_of : int array;  (* merge write -> its global chain index *)
  pos_of : int array;    (* merge write -> its position in that chain *)
  reader_off : int array;  (* write -> first index of its reads in [readers] *)
  readers : int array;
  indeg : int array;     (* scratch for the topological pass *)
  topo : int array;      (* scratch: topological order of node ids *)
  label : int -> string;
  mutable trail : (unit -> unit) list;
  mutable decisions : int;
  mutable backtracks : int;
}

let push_clock (vc : int array) nc ~u ~cu ~(pu : int) v =
  let bu = u * nc and bv = v * nc in
  for c = 0 to nc - 1 do
    if vc.(bu + c) > vc.(bv + c) then vc.(bv + c) <- vc.(bu + c)
  done;
  if cu >= 0 && pu > vc.(bv + cu) then vc.(bv + cu) <- pu

(* Kahn's topological sort (the cycle check), then the vector-clock
   pass. *)
let recompute st g =
  let n = st.n and indeg = st.indeg and topo = st.topo in
  let off = g.edges.off and dst = g.edges.dst and dyn = g.dyn in
  Array.fill indeg 0 n 0;
  for i = 0 to Array.length dst - 1 do
    let v = dst.(i) in
    indeg.(v) <- indeg.(v) + 1
  done;
  Array.iter (List.iter (fun v -> indeg.(v) <- indeg.(v) + 1)) dyn;
  let count = ref 0 in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then begin
      topo.(!count) <- u;
      incr count
    end
  done;
  let release v =
    let d = indeg.(v) - 1 in
    indeg.(v) <- d;
    if d = 0 then begin
      topo.(!count) <- v;
      incr count
    end
  in
  let head = ref 0 in
  while !head < !count do
    let u = topo.(!head) in
    incr head;
    for i = off.(u) to off.(u + 1) - 1 do
      release dst.(i)
    done;
    List.iter release dyn.(u)
  done;
  if !count < n then begin
    (* the first event Kahn never released *)
    let u = ref 0 in
    while indeg.(!u) = 0 do
      incr u
    done;
    Error (Printf.sprintf "cycle in %s graph: %s" g.gname (st.label !u))
  end
  else begin
    let nc = st.nchains and vc = g.vc in
    Array.fill vc 0 (n * nc) (-1);
    for i = 0 to n - 1 do
      let u = topo.(i) in
      let cu = st.chain_of.(u) and pu = st.pos_of.(u) in
      for j = off.(u) to off.(u + 1) - 1 do
        push_clock vc nc ~u ~cu ~pu dst.(j)
      done;
      List.iter (push_clock vc nc ~u ~cu ~pu) dyn.(u)
    done;
    Ok ()
  end

(* Valid only between a [recompute] and the next edge addition; [a] is a
   merge write. *)
let reaches st g a b =
  g.vc.((b * st.nchains) + st.chain_of.(a)) >= st.pos_of.(a)
let reaches2 st a b = reaches st st.uni a b || reaches st st.mg a b

let push st f = st.trail <- f :: st.trail

let add_edge st g u v =
  g.dyn.(u) <- v :: g.dyn.(u);
  push st (fun () -> g.dyn.(u) <- List.tl g.dyn.(u))

let add_edge2 st u v =
  add_edge st st.uni u v;
  add_edge st st.mg u v

let undo_to st saved =
  let rec go l =
    if l != saved then
      match l with
      | f :: rest ->
        f ();
        go rest
      | [] -> assert false
  in
  go st.trail;
  st.trail <- saved

(* Append the head of chain [ci] as the next write in [m]'s coherence
   order.  Materializes exactly the forced consequences: ws from the
   previous merged write, fr from its readers, and ws to the heads of the
   other chains (everything still unmerged follows [h]). *)
let append st m ci =
  let h = m.chains.(ci).(m.idx.(ci)) in
  let prev = m.last in
  let old_idx = m.idx.(ci) in
  m.idx.(ci) <- old_idx + 1;
  m.remaining <- m.remaining - 1;
  m.last <- h;
  push st (fun () ->
      m.idx.(ci) <- old_idx;
      m.remaining <- m.remaining + 1;
      m.last <- prev);
  if prev >= 0 then begin
    add_edge2 st prev h;
    for i = st.reader_off.(prev) to st.reader_off.(prev + 1) - 1 do
      add_edge2 st st.readers.(i) h
    done
  end;
  Array.iteri
    (fun cj chain ->
      if cj <> ci && m.idx.(cj) < Array.length chain then
        add_edge2 st h chain.(m.idx.(cj)))
    m.chains

let nonempty_chains m =
  let acc = ref [] in
  Array.iteri
    (fun ci chain -> if m.idx.(ci) < Array.length chain then acc := ci :: !acc)
    m.chains;
  List.rev !acc

(* A merge down to one live chain is pure materialization: the rest of the
   order is po-forced, so no reachability data is needed. *)
let drain_single_chains st =
  List.iter
    (fun m ->
      if m.remaining > 0 then
        match nonempty_chains m with
        | [ ci ] ->
          while m.remaining > 0 do
            append st m ci
          done
        | _ -> ())
    st.merges

type step =
  | Forced of merge * int
  | Choice of merge * int list
  | Done

exception Conflict_at of string

(* Find the next coherence step.  A head [h] cannot be the next write if
   another head reaches it (that head would then be coherence-after its
   own successor), or if another head reaches one of [h]'s readers (the
   reader's fr edge back to that head would close a cycle).  A single
   admissible head is a unit propagation; several are a decision point. *)
let find_step st =
  let forced = ref None in
  let choice = ref None in
  List.iter
    (fun m ->
      if m.remaining > 0 then begin
        let heads =
          List.map (fun ci -> (ci, m.chains.(ci).(m.idx.(ci)))) (nonempty_chains m)
        in
        let rec reaches_reader h' i stop =
          i < stop
          && (reaches2 st h' st.readers.(i) || reaches_reader h' (i + 1) stop)
        in
        let blocked (ci, h) =
          List.exists
            (fun (cj, h') ->
              cj <> ci
              && (reaches2 st h' h
                 || reaches_reader h' st.reader_off.(h) st.reader_off.(h + 1)))
            heads
        in
        match List.filter (fun hd -> not (blocked hd)) heads with
        | [] -> raise (Conflict_at m.mloc)
        | [ (ci, _) ] -> if !forced = None then forced := Some (m, ci)
        | cis ->
          if !choice = None then choice := Some (m, List.map fst cis)
      end)
    st.merges;
  match (!forced, !choice) with
  | Some (m, ci), _ -> Forced (m, ci)
  | None, Some (m, cis) -> Choice (m, cis)
  | None, None -> Done

let recompute2 st =
  match recompute st st.uni with
  | Error _ as e -> e
  | Ok () -> recompute st st.mg

(* DPLL over the coherence orders: propagate (drain + forced appends,
   re-checking acyclicity after each) and branch only on free
   interleaving points, undoing via the trail. *)
let rec solve st =
  drain_single_chains st;
  match recompute2 st with
  | Error reason -> Error reason
  | Ok () -> (
    match find_step st with
    | Done -> Ok ()
    | Forced (m, ci) ->
      append st m ci;
      solve st
    | Choice (m, cis) ->
      st.decisions <- st.decisions + List.length cis - 1;
      let rec try_heads = function
        | [] ->
          Error
            (Printf.sprintf "exhausted coherence interleavings for [%s]"
               m.mloc)
        | ci :: rest -> (
          let saved = st.trail in
          append st m ci;
          match solve st with
          | Ok () -> Ok ()
          | Error _ ->
            st.backtracks <- st.backtracks + 1;
            undo_to st saved;
            try_heads rest)
      in
      try_heads cis
    | exception Conflict_at loc ->
      Error
        (Printf.sprintf "no admissible coherence successor for [%s]" loc))

(* ---------- static construction ---------- *)

let build ~(model : Operational.model) ex ~extra ~label =
  let n = Array.length ex.kind in
  let nlocs = Array.length ex.locations in
  let nthreads = Array.length ex.thread_start - 1 in
  let first_use = Array.make nlocs max_int in
  for id = n - 1 downto 0 do
    if ex.kind.(id) <> Fence then first_use.(ex.loc.(id)) <- id
  done;
  (* Per-(thread, location) write chains as links: the po-forced spine of
     every coherence order. *)
  let next_write = Array.make n (-1) in
  let first_write = Array.make (nthreads * nlocs) (-1) in
  let nwriters = Array.make nlocs 0 in
  for t = 0 to nthreads - 1 do
    let base = t * nlocs in
    for id = ex.thread_start.(t + 1) - 1 downto ex.thread_start.(t) do
      if ex.kind.(id) = Write then begin
        let x = ex.loc.(id) in
        next_write.(id) <- first_write.(base + x);
        first_write.(base + x) <- id
      end
    done;
    for x = 0 to nlocs - 1 do
      if first_write.(base + x) >= 0 then
        nwriters.(x) <- nwriters.(x) + 1
    done
  done;
  (* Coherence merges for locations written by more than one thread, in
     first-use order (the order search visits them). *)
  let merge_locs =
    List.filter (fun x -> nwriters.(x) >= 2) (List.init nlocs Fun.id)
    |> List.sort (fun a b -> compare first_use.(a) first_use.(b))
  in
  let chain_of = Array.make n (-1) and pos_of = Array.make n (-1) in
  let nchains = ref 0 in
  let merges =
    List.map
      (fun x ->
        let chains =
          List.init nthreads (fun t -> first_write.((t * nlocs) + x))
          |> List.filter (fun w0 -> w0 >= 0)
          |> List.map (fun w0 ->
                 let rec walk w =
                   if w < 0 then [] else w :: walk next_write.(w)
                 in
                 let chain = Array.of_list (walk w0) in
                 Array.iteri
                   (fun p w ->
                     chain_of.(w) <- !nchains;
                     pos_of.(w) <- p)
                   chain;
                 incr nchains;
                 chain)
          |> Array.of_list
        in
        {
          mloc = ex.locations.(x);
          chains;
          idx = Array.make (Array.length chains) 0;
          last = -1;
          remaining = Array.fold_left (fun a c -> a + Array.length c) 0 chains;
        })
      merge_locs
  in
  let nchains = !nchains in
  (* write -> the reads sourced from it, as CSR *)
  let rd = csr n in
  build_csrs [ rd ] (fun () ->
      for r = 0 to n - 1 do
        if ex.kind.(r) = Read && ex.rf.(r) >= 0 then add rd ex.rf.(r) r
      done);
  let uni = csr n and mg = csr n in
  build_csrs [ uni; mg ] (fun () ->
      static_edges ~model ex ~next_write ~first_write ~extra ~uni ~mg);
  let graph gname edges =
    { gname; edges; dyn = Array.make n []; vc = Array.make (n * nchains) (-1) }
  in
  {
    n;
    uni = graph "uniproc" uni;
    mg = graph (Operational.model_to_string model) mg;
    merges;
    nchains;
    chain_of;
    pos_of;
    reader_off = rd.off;
    readers = rd.dst;
    indeg = Array.make n 0;
    topo = Array.make n 0;
    label;
    trail = [];
    decisions = 0;
    backtracks = 0;
  }

(* [ex] has passed [writer_threads]. *)
let solve_graphs ~extra ~label model ex =
  let st = build ~model ex ~extra ~label in
  let verdict consistent violation =
    {
      consistent;
      events = st.n;
      violation;
      decisions = st.decisions;
      backtracks = st.backtracks;
    }
  in
  match solve st with
  | Ok () -> verdict true None
  | Error reason -> verdict false (Some reason)

let check_graphs model ex =
  ignore (writer_threads ex);
  solve_graphs ~extra:[] ~label:(default_label ex) model ex

(* Extra ws edges ([Loc_eq] targets) can contradict program order, so
   they take the graph path too. *)
let check_exec ?(extra = []) ?label model ex =
  let label = match label with Some f -> f | None -> default_label ex in
  let writer = writer_threads ex in
  if extra <> [] || Array.exists (fun w -> w = -2) writer then
    solve_graphs ~extra ~label model ex
  else
    let violation =
      match coherence_scan ex ~writer ~label with
      | Some _ as v -> v
      | None -> chain_sweep ~model ex ~label
    in
    {
      consistent = violation = None;
      events = Array.length ex.kind;
      violation;
      decisions = 0;
      backtracks = 0;
    }

let check ?label model ex = check_exec ?label model ex

(* ---------- whole-trace verification ---------- *)

type trace_event =
  | T_write of string
  | T_read of string * int option
  | T_fence

(* The boxed trace view, flattened for the kernel. *)
let classify_trace model threads =
  let n = Array.fold_left (fun a t -> a + Array.length t) 0 threads in
  let intern, names = interner () in
  let kind = Array.make n Fence and loc = Array.make n (-1) in
  let rf = Array.make n (-1) in
  let thread_start = Array.make (Array.length threads + 1) n in
  let id = ref 0 in
  Array.iteri
    (fun t evs ->
      thread_start.(t) <- !id;
      Array.iter
        (fun ev ->
          (match ev with
          | T_write x ->
            kind.(!id) <- Write;
            loc.(!id) <- intern x
          | T_read (x, src) ->
            kind.(!id) <- Read;
            loc.(!id) <- intern x;
            rf.(!id) <- Option.value src ~default:(-1)
          | T_fence -> ());
          incr id)
        evs)
    threads;
  check model { locations = names (); thread_start; kind; loc; rf }

(* ---------- litmus-test interface ---------- *)

(* rf variables: for every read, the candidate sources (writes to its
   location, or the initial value).  Enumerated depth-first with the
   cheap po-local coherence prunes; each full assignment is decided by
   the coherence solver above. *)

type problem = {
  test : Ast.t;
  exec : execution;  (* rf filled per assignment *)
  evs : E.event list;  (* Event_graph view, same ids *)
  preads : E.event list;
  wvalue : int array;  (* write id -> stored value *)
}

let problem_of_test test =
  let evs = E.events_of_test test in
  let n = List.length evs in
  let intern, names = interner () in
  let kind = Array.make n Fence and loc = Array.make n (-1) in
  let wvalue = Array.make n 0 in
  let thread_start = Array.make (Array.length test.Ast.threads + 1) 0 in
  List.iter
    (fun (e : E.event) ->
      thread_start.(e.thread + 1) <- thread_start.(e.thread + 1) + 1;
      match e.kind with
      | E.Write (x, a) ->
        wvalue.(e.id) <- a;
        kind.(e.id) <- Write;
        loc.(e.id) <- intern x
      | E.Read (_, x) ->
        kind.(e.id) <- Read;
        loc.(e.id) <- intern x
      | E.Fence -> ()
      | E.Flush x ->
        kind.(e.id) <- Flush;
        loc.(e.id) <- intern x)
    evs;
  for t = 1 to Array.length thread_start - 1 do
    thread_start.(t) <- thread_start.(t) + thread_start.(t - 1)
  done;
  let exec =
    { locations = names (); thread_start; kind; loc; rf = Array.make n (-1) }
  in
  { test; exec; evs; preads = E.reads evs; wvalue }

(* Sound po-local prunes (each rejected choice is a uniproc cycle): a
   read cannot source a po-later own write, cannot skip over an own
   intervening write, and cannot read the initial value past an own
   write. *)
let locally_coherent p (r : E.event) src =
  let x = Option.get (E.location r.kind) in
  let own_writes =
    List.filter
      (fun (w : E.event) ->
        w.thread = r.thread && w.po < r.po && E.is_write w
        && E.location w.kind = Some x)
      p.evs
  in
  match src with
  | None ->
    (* reading the initial value past an own write is a uniproc cycle *)
    own_writes = []
  | Some (w : E.event) ->
    if w.thread <> r.thread then
      (* cross-thread sources are only constrained through ws *)
      true
    else
      (* own sources must be the po-latest own write (store forwarding) *)
      w.po < r.po
      && not (List.exists (fun (w' : E.event) -> w'.po > w.po) own_writes)

let domain p (r : E.event) =
  let x = Option.get (E.location r.kind) in
  let writes = E.writes_to p.evs x in
  List.filter
    (fun src -> locally_coherent p r src)
    (List.map (fun w -> Some w) writes @ [ None ])

(* Enumerate rf assignments; call [yield] on every solver-consistent one
   with the outcome it denotes. *)
let enumerate ?(domains = []) ~model p ~extra yield =
  let reads = p.preads in
  let rf = Array.make (Array.length p.exec.kind) None in
  let dom (r : E.event) =
    match List.assq_opt r domains with Some d -> d | None -> domain p r
  in
  let rec go = function
    | [] ->
      let rf_ids =
        Array.map (function Some (w : E.event) -> w.id | None -> -1) rf
      in
      let v = check_exec ~extra model { p.exec with rf = rf_ids } in
      if v.consistent then begin
        let bindings =
          List.map
            (fun (r : E.event) ->
              let reg =
                match r.kind with E.Read (reg, _) -> reg | _ -> assert false
              in
              let value =
                match rf.(r.id) with
                | Some (w : E.event) -> p.wvalue.(w.id)
                | None ->
                  Ast.initial_value p.test (Option.get (E.location r.kind))
              in
              { Outcome.thread = r.thread; reg; value })
            reads
        in
        yield
          (List.sort
             (fun (a : Outcome.binding) (b : Outcome.binding) ->
               compare (a.thread, a.reg) (b.thread, b.reg))
             bindings)
          rf
      end
    | r :: rest ->
      List.iter
        (fun src ->
          rf.(r.E.id) <- src;
          go rest;
          rf.(r.E.id) <- None)
        (dom r)
  in
  go reads

let reachable_outcomes model test =
  let p = problem_of_test test in
  let acc = ref [] in
  enumerate ~model p ~extra:[] (fun outcome _ -> acc := outcome :: !acc);
  List.sort_uniq Outcome.compare !acc

exception Sat

let restrict_domains p partial =
  List.filter_map
    (fun (r : E.event) ->
      match r.kind with
      | E.Read (reg, x) -> (
        match
          List.find_opt
            (fun (b : Outcome.binding) ->
              b.thread = r.thread && b.reg = reg)
            partial
        with
        | None -> None
        | Some b ->
          let keep src =
            (match src with
            | Some (w : E.event) -> p.wvalue.(w.id) = b.value
            | None -> Ast.initial_value p.test x = b.value)
            && locally_coherent p r src
          in
          let writes = E.writes_to p.evs x in
          Some
            (r, List.filter keep (List.map (fun w -> Some w) writes @ [ None ])))
      | _ -> None)
    p.preads

let condition_reachable model test ~partial =
  let p = problem_of_test test in
  let domains = restrict_domains p partial in
  try
    enumerate ~domains ~model p ~extra:[] (fun _ _ -> raise Sat);
    false
  with Sat -> true

let condition_always model test ~partial =
  List.for_all
    (fun o -> Outcome.matches ~partial o)
    (reachable_outcomes model test)

(* The test's own condition including final-memory atoms: a [Loc_eq]
   pins the coherence-maximal write of the location, expressed as extra
   ws edges from every other write to the chosen target. *)
let final_condition_reachable model test =
  let p = problem_of_test test in
  let atoms = test.Ast.condition.Ast.atoms in
  let partial =
    List.filter_map
      (function
        | Ast.Reg_eq (thread, reg, value) ->
          Some { Outcome.thread; reg; value }
        | Ast.Loc_eq _ -> None)
      atoms
  in
  let domains = restrict_domains p partial in
  let loc_targets =
    List.filter_map
      (function
        | Ast.Reg_eq _ -> None
        | Ast.Loc_eq (x, v) -> (
          match E.writes_to p.evs x with
          | [] -> Some (if Ast.initial_value test x = v then [ [] ] else [])
          | writes ->
            let targets =
              List.filter (fun (w : E.event) -> p.wvalue.(w.id) = v) writes
            in
            Some
              (List.map
                 (fun (w : E.event) ->
                   List.filter_map
                     (fun (w' : E.event) ->
                       if w'.id = w.id then None else Some (w'.id, w.id))
                     writes)
                 targets)))
      atoms
  in
  let rec combos = function
    | [] -> [ [] ]
    | options :: rest ->
      List.concat_map
        (fun extra -> List.map (fun tail -> extra @ tail) (combos rest))
        options
  in
  List.exists
    (fun extra ->
      try
        enumerate ~domains ~model p ~extra (fun _ _ -> raise Sat);
        false
      with Sat -> true)
    (combos loc_targets)

let condition_verdict model test =
  match test.Ast.condition.Ast.quantifier with
  | Ast.Exists | Ast.Not_exists -> Ok (final_condition_reachable model test)
  | Ast.Forall -> (
    match Outcome.of_condition { test with Ast.condition = { test.Ast.condition with Ast.quantifier = Ast.Exists } } with
    | Error _ as e -> e
    | Ok partial -> Ok (condition_always model test ~partial))

let target_allowed model test =
  match Outcome.of_condition test with
  | Error _ as e -> e
  | Ok partial -> Ok (condition_reachable model test ~partial)

let classify model test outcome =
  condition_reachable model test ~partial:outcome
