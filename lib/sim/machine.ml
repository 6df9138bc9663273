module Rng = Perple_util.Rng
module Metrics = Perple_util.Metrics
module Trace_event = Perple_util.Trace_event

type barrier = No_barrier | Every_iteration of { cost : int; max_release_skew : int }

type event =
  | Exec of { thread : int; iteration : int; instr : Program.instr; value : int }
  | Drain of { thread : int; loc : int; value : int }
  | Barrier_release
  | Stall of { thread : int; until : int }

type termination =
  | Completed
  | Watchdog_abort
  | Hung

let termination_name = function
  | Completed -> "completed"
  | Watchdog_abort -> "watchdog_abort"
  | Hung -> "hung"

type stats = {
  rounds : int;
  instructions : int;
  drains : int;
  barriers : int;
  stalls : int;
  termination : termination;
  iterations_retired : int array;
  lost_stores : int;
  persisted : int array array option;
}

(* Per-thread interpreter state: everything the hot loop touches is an
   unboxed int field or a preallocated int array.  The store buffer is a
   flat circular buffer over three parallel arrays (location, cell,
   value), oldest entry at [sb_start], newest at
   [(sb_start + sb_len - 1) land sb_mask] — no allocation per store,
   and store-forwarding is a backwards scan over at most
   [buffer_capacity] ints.

   [ready_at] is the single scheduling word the round loop tests: the
   first round in which the thread may act, or [max_int] while it cannot
   act on its own (finished, fault-hung, or parked at the barrier).  It
   subsumes the finished/waiting/hung flags on the hot path; the flags
   remain authoritative for the slow paths that need to distinguish the
   cases. *)
type tstate = {
  code : int array;  (* flat body, Program.encode_thread *)
  code_len : int;
  body : Program.instr array;  (* original instrs, for on_event only *)
  regs : int array;
  sb_loc : int array;
  sb_cell : int array;
  sb_val : int array;
  sb_mask : int;
  mutable sb_start : int;
  mutable sb_len : int;
  mutable pc : int;  (* offset into [code]; multiple of instr_width *)
  mutable iteration : int;
  mutable ready_at : int;
  mutable waiting : bool;  (* at the barrier *)
  mutable finished : bool;
  mutable hung : bool;  (* fault-injected: never retires again *)
  mutable livelocked : bool;  (* fault-injected: progress collapsed *)
  mutable jitter_skip : int;  (* ready rounds to next jitter hit *)
  mutable progress_skip : int;  (* collapsed-progress skip (livelocked only) *)
  mutable loss_threshold : int;  (* per-drain silent-loss lane threshold *)
}

let image_uses_indexed (image : Program.image) =
  Array.exists
    (fun (t : Program.thread) ->
      Array.exists
        (function
          | Program.Store { addr = Program.Indexed; _ }
          | Program.Load { addr = Program.Indexed; _ }
          | Program.Flush { addr = Program.Indexed; _ } ->
            true
          | Program.Store _ | Program.Load _ | Program.Fence
          | Program.Flush _ | Program.Drain ->
            false)
        t.body)
    image.programs

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

(* The lane stream: one native-int splitmix state plus the unread 16-bit
   lanes of its latest mix.  The round loop advances [lstate] itself for
   its positional progress mix ([round_mix]); every other draw takes the
   next sequential lane ([lane_next]).

   The stream pieces live here rather than in {!Lane}: the dev profile
   compiles with [-opaque], so nothing inlines across modules, and a
   [Lane.mix] call (plus a load of [Lane.gamma] through the module
   block) on every draw measured 5-11% of the machine's time.

   [gamma] and [mix] are splitmix64's constants truncated to OCaml's
   63-bit int.  The mixer loses the top bit of each multiply; for
   scheduling noise the avalanche quality is still far beyond what the
   simulator can observe.  Each mixed value yields three 16-bit lanes
   (bits 0-47). *)
let gamma = 0x1E3779B97F4A7C15

let[@inline] mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

type lanes = { mutable lstate : int; mutable lbuf : int; mutable lcnt : int }

let lanes_of_rng rng =
  { lstate = Int64.to_int (Rng.bits64 rng) land max_int; lbuf = 0; lcnt = 0 }

let[@inline] lane_next ls =
  if ls.lcnt = 0 then begin
    ls.lstate <- (ls.lstate + gamma) land max_int;
    let z = mix ls.lstate in
    ls.lbuf <- z lsr 16;
    ls.lcnt <- 2;
    z land 0xFFFF
  end
  else begin
    let b = ls.lbuf in
    ls.lbuf <- b lsr 16;
    ls.lcnt <- ls.lcnt - 1;
    b land 0xFFFF
  end

let[@inline] round_mix ls =
  ls.lstate <- (ls.lstate + gamma) land max_int;
  mix ls.lstate

(* Store buffers are flat rings: a buffer of [len] entries keeps its
   [k]-th oldest entry at [base + ((start + k) land mask)] of three
   parallel arrays (location, cell, value).

   [drain_pick] is the oldest-first position the next drain takes from a
   non-empty ring: always the oldest under the FIFO models; uniform over
   positions under [Tso_store_reorder] (buggy hardware: any entry may
   drain first); under [Pso] the oldest entry of a uniformly chosen
   buffered location (FIFO per location, reorderable across locations;
   [pso_locs] is scratch for the distinct locations in ascending id
   order).  A lane is drawn only when there is a choice to make. *)
let drain_pick model ~lane ~nlocs ~pso_locs ~sb_loc ~base ~start ~mask ~len =
  match model with
  | Config.Tso_store_reorder ->
    if len = 1 then 0 else (lane () * len) lsr Lane.lane_bits
  | Config.Pso ->
    if len = 1 then 0
    else begin
      let count = ref 0 in
      for l = 0 to nlocs - 1 do
        let present = ref false in
        for k = 0 to len - 1 do
          if Array.unsafe_get sb_loc (base + ((start + k) land mask)) = l then
            present := true
        done;
        if !present then begin
          pso_locs.(!count) <- l;
          incr count
        end
      done;
      let loc =
        if !count = 1 then pso_locs.(0)
        else pso_locs.((lane () * !count) lsr Lane.lane_bits)
      in
      (* Oldest entry of [loc]: first match oldest-first. *)
      let k = ref 0 in
      while Array.unsafe_get sb_loc (base + ((start + !k) land mask)) <> loc do
        incr k
      done;
      !k
    end
  | Config.Sc | Config.Tso | Config.Tso_fence_ignored -> 0

(* Remove oldest-first position [i] from a ring, preserving the order of
   the rest: shift the older side up one slot.  The caller then advances
   the ring's start by one and shortens it. *)
let ring_remove_at ~sb_loc ~sb_cell ~sb_val ~base ~start ~mask i =
  for k = i downto 1 do
    let dst = base + ((start + k) land mask) in
    let src = base + ((start + k - 1) land mask) in
    Array.unsafe_set sb_loc dst (Array.unsafe_get sb_loc src);
    Array.unsafe_set sb_cell dst (Array.unsafe_get sb_cell src);
    Array.unsafe_set sb_val dst (Array.unsafe_get sb_val src)
  done

(* Memory as one flat int array, [loc * cells + cell]. *)
let initial_memory (image : Program.image) ~cells =
  let memory =
    Array.make (Array.length image.Program.location_names * cells) 0
  in
  Array.iteri
    (fun l init -> Array.fill memory (l * cells) cells init)
    image.Program.init;
  memory

(* OS jitter as two geometric skip tables, (rounds between preemptions,
   stall length); empty when jitter is off. *)
let jitter_tables config =
  if config.Config.jitter_chance > 0.0 then
    ( Lane.geometric_table (min 1.0 config.Config.jitter_chance),
      Lane.geometric_table
        (1.0 /. float_of_int (max 1 config.Config.jitter_mean)) )
  else ([||], [||])

(* Whether a fence waits for an empty store buffer: not under SC (no
   buffer) nor under the fence-ignored bug. *)
let fence_waits = function
  | Config.Tso | Config.Pso | Config.Tso_store_reorder -> true
  | Config.Sc | Config.Tso_fence_ignored -> false

(* Report a finished run to the ambient sink (counters plus the
   store-buffer occupancy histogram, accumulated locally in [occ_hist]
   and flushed once per run) and to the trace ([machine.run] span), then
   return its stats. *)
let publish ~mx ~trace_start ~iterations ~occ_hist stats =
  (match mx with
  | Some m ->
    Metrics.add m "machine.runs" 1;
    Metrics.add m "machine.rounds" stats.rounds;
    Metrics.add m "machine.instructions" stats.instructions;
    Metrics.add m "machine.drains" stats.drains;
    Metrics.add m "machine.barriers" stats.barriers;
    Metrics.add m "machine.stalls" stats.stalls;
    Metrics.add m "machine.lost_stores" stats.lost_stores;
    Metrics.add m
      ("machine.termination." ^ termination_name stats.termination)
      1;
    Array.iteri
      (fun occ count ->
        if count > 0 then
          Metrics.observe_many m "machine.buffer_occupancy" occ count)
      occ_hist
  | None -> ());
  Trace_event.complete ~name:"machine.run" ~since:trace_start
    ~args:
      [
        ("rounds", Trace_event.Int stats.rounds);
        ("instructions", Trace_event.Int stats.instructions);
        ("iterations", Trace_event.Int iterations);
        ("termination", Trace_event.String (termination_name stats.termination));
      ]
    ();
  stats

let run ?on_iteration_end ?on_sample ?on_event ?watchdog
    ?(sample_interval = 64) ~config ~rng ~image ~iterations ~barrier () =
  if iterations <= 0 then invalid_arg "Machine.run: iterations must be > 0";
  (* Ambient observability, resolved once per run so the per-round cost of
     disabled instrumentation is a compare on an immutable local.  The
     resolution NEVER changes which random lanes are consumed: enabled and
     disabled runs execute the same schedule. *)
  let mx = Metrics.active () in
  let has_events = on_event <> None in
  let trace_start = Trace_event.now () in
  let nthreads = Array.length image.Program.programs in
  let nlocs = Array.length image.Program.location_names in
  let cells = if image_uses_indexed image then iterations else 1 in
  let memory = initial_memory image ~cells in
  (* The persistence domain exists only for programs that exercise it, so
     ordinary runs allocate nothing for it. *)
  let pmem =
    if Program.uses_persistency image then
      Some (Pmem.create ~nthreads ~nlocs ~cells ~init:image.Program.init)
    else None
  in
  let crash_image = ref None in
  let ring = next_pow2 (max 1 config.Config.buffer_capacity) 1 in
  let threads =
    Array.map
      (fun (p : Program.thread) ->
        {
          code = Program.encode_thread p;
          code_len = Array.length p.body * Program.instr_width;
          body = p.body;
          regs = Array.make (max 1 p.reg_count) 0;
          sb_loc = Array.make ring 0;
          sb_cell = Array.make ring 0;
          sb_val = Array.make ring 0;
          sb_mask = ring - 1;
          sb_start = 0;
          sb_len = 0;
          pc = 0;
          iteration = 0;
          ready_at = 0;
          waiting = false;
          finished = false;
          hung = false;
          livelocked = false;
          jitter_skip = max_int;
          progress_skip = 0;
          loss_threshold = 0;
        })
      image.Program.programs
  in
  (* Arm the fault profile once per thread, up front, from the run RNG, so
     arming sits at a fixed point of that stream.  An empty profile draws
     nothing. *)
  let faults =
    if config.Config.faults = [] then [||]
    else
      Array.map
        (fun _ -> Fault.arm config.Config.faults ~rng ~iterations)
        threads
  in
  let has_faults = Array.length faults > 0 in
  (match mx with
  | Some m ->
    Array.iter
      (fun (a : Fault.armed) ->
        if a.Fault.hang_at <> None then Metrics.add m "machine.fault_arms.hang" 1;
        if a.Fault.crash_at <> None then
          Metrics.add m "machine.fault_arms.crash" 1;
        if a.Fault.livelock_at <> None then
          Metrics.add m "machine.fault_arms.livelock" 1;
        if a.Fault.loss_chance > 0.0 then
          Metrics.add m "machine.fault_arms.store_loss" 1)
      faults
  | None -> ());
  if has_faults then
    Array.iteri
      (fun t st ->
        st.loss_threshold <- Lane.threshold faults.(t).Fault.loss_chance)
      threads;
  (* The lane stream: all hot-loop randomness (progress/drain/jitter
     coins, stall lengths, buggy-model drain picks, store loss, barrier
     skew) comes from this native-int splitmix stream, seeded from the
     run RNG with one draw.  [Fault.arm] above and [Pmem.crash_snapshot]
     below keep drawing from the run RNG itself — both are out of the
     hot loop.  Each round draws ONE mix whose three 16-bit lanes serve
     the first three threads' progress coins positionally (reading a
     bit-slice does not advance the stream, so stalled threads skipping
     their slice costs nothing); everything rarer pulls 16-bit lanes
     from the same stream via [lane ()].  This is the documented
     one-time remap of the machine's random stream (docs/internals.md,
     "Performance"). *)
  let ls = lanes_of_rng rng in
  let lane () = lane_next ls in
  (* Per-round Bernoulli decisions as lane thresholds; rare events
     (jitter, collapsed livelock progress) as geometric skip counters so
     their per-round cost is one decrement. *)
  let progress_threshold = Lane.threshold config.Config.progress_chance in
  let drain_threshold = Lane.threshold config.Config.drain_chance in
  let jitter_on = config.Config.jitter_chance > 0.0 in
  let jitter_table, stall_table = jitter_tables config in
  let livelock_p = config.Config.progress_chance *. Fault.livelock_factor in
  let livelock_table =
    if
      has_faults && livelock_p > 0.0
      && Array.exists (fun (a : Fault.armed) -> a.Fault.livelock_at <> None) faults
    then Lane.geometric_table (min 1.0 livelock_p)
    else [||]
  in
  let skip_of table = Array.unsafe_get table (lane () lsr Lane.shift_for_table) in
  if jitter_on then
    Array.iter (fun st -> st.jitter_skip <- skip_of jitter_table) threads;
  (* Model dispatch, resolved once. *)
  let model = config.Config.model in
  let model_sc = model = Config.Sc in
  let fence_waits = fence_waits model in
  let buffer_capacity = config.Config.buffer_capacity in
  (* O(1) liveness bookkeeping instead of per-round [Array.for_all]. *)
  let live = ref nthreads in
  let buffered = ref 0 in
  let any_hung = ref false in
  (* Threads parked at the barrier; the rendezvous fires when every
     unfinished thread is parked, i.e. [nwaiting = live]. *)
  let nwaiting = ref 0 in
  let barrier_on, barrier_cost, barrier_skew =
    match barrier with
    | Every_iteration { cost; max_release_skew } -> (true, cost, max_release_skew)
    | No_barrier -> (false, 0, 0)
  in
  let clock = ref 0 in
  let last_progress = ref 0 in
  let instructions = ref 0 in
  let drains = ref 0 in
  let barriers = ref 0 in
  let stalls = ref 0 in
  let lost_stores = ref 0 in
  (* Store-buffer occupancy distribution, accumulated locally and flushed
     to the sink once per run: a hashtable probe per buffered store would
     dominate the store fast path under an active sink. *)
  let occ_hist = match mx with Some _ -> Array.make (ring + 1) 0 | None -> [||] in
  (* 0 = running, 1 = watchdog abort, 2 = hung. *)
  let aborted = ref 0 in
  let next_watchdog =
    ref (match watchdog with Some _ -> sample_interval | None -> max_int)
  in
  let next_sample =
    ref (match on_sample with Some _ -> sample_interval | None -> max_int)
  in
  let iteration_snapshot () = Array.map (fun st -> st.iteration) threads in
  (* Youngest buffered store to (loc, cell): backwards ring scan, first
     match; -1 when absent.  Newest-to-oldest order is what makes
     store-forwarding return the youngest matching entry. *)
  let sb_find st loc cell =
    let i = ref (st.sb_len - 1) in
    let found = ref (-1) in
    while !found < 0 && !i >= 0 do
      let idx = (st.sb_start + !i) land st.sb_mask in
      if
        Array.unsafe_get st.sb_loc idx = loc
        && Array.unsafe_get st.sb_cell idx = cell
      then found := idx
      else decr i
    done;
    !found
  in
  let sb_remove_at st i =
    ring_remove_at ~sb_loc:st.sb_loc ~sb_cell:st.sb_cell ~sb_val:st.sb_val
      ~base:0 ~start:st.sb_start ~mask:st.sb_mask i;
    st.sb_start <- (st.sb_start + 1) land st.sb_mask;
    st.sb_len <- st.sb_len - 1;
    if st.sb_len = 0 then decr buffered
  in
  (* Scratch for the Pso drain pick (distinct buffered locations in
     ascending id order). *)
  let pso_locs = Array.make (max 1 nlocs) 0 in
  (* Fast-forward scratch, hoisted so the per-round scan allocates
     nothing. *)
  let ff_earliest = ref 0 in
  let drain_one t st =
    last_progress := !clock;
    if st.sb_len > 0 then begin
      (* Select the entry to drain, removing it from the ring. *)
      let pos =
        drain_pick model ~lane ~nlocs ~pso_locs ~sb_loc:st.sb_loc ~base:0
          ~start:st.sb_start ~mask:st.sb_mask ~len:st.sb_len
      in
      let idx = (st.sb_start + pos) land st.sb_mask in
      let loc = Array.unsafe_get st.sb_loc idx in
      let cell = Array.unsafe_get st.sb_cell idx in
      let value = Array.unsafe_get st.sb_val idx in
      sb_remove_at st pos;
      if st.loss_threshold > 0 && lane () < st.loss_threshold then
        (* Silent store loss: the entry leaves the buffer but never
           reaches memory, and no event betrays it. *)
        incr lost_stores
      else begin
        Array.unsafe_set memory ((loc * cells) + cell) value;
        if has_events then
          (match on_event with
          | Some hook -> hook ~round:!clock (Drain { thread = t; loc; value })
          | None -> ());
        incr drains
      end
    end
  in
  let set_finished st =
    if not st.finished then begin
      st.finished <- true;
      st.ready_at <- max_int;
      decr live
    end
  in
  let finish_iteration t st =
    (match on_iteration_end with
    | Some hook -> hook ~thread:t ~iteration:st.iteration ~regs:st.regs
    | None -> ());
    match barrier with
    | No_barrier ->
      st.iteration <- st.iteration + 1;
      st.pc <- 0;
      if st.iteration >= iterations then set_finished st
    | Every_iteration _ ->
      st.waiting <- true;
      incr nwaiting;
      st.ready_at <- max_int
  in
  let emit_exec t st value =
    match on_event with
    | Some hook ->
      hook ~round:!clock
        (Exec
           {
             thread = t;
             iteration = st.iteration;
             (* pc already advanced past the retiring instruction *)
             instr = st.body.((st.pc - Program.instr_width) / Program.instr_width);
             value;
           })
    | None -> ()
  in
  (* Progress for the livelock detector is a retired instruction (or a
     drain), never a stalled attempt: a store facing a full buffer or a
     fence waiting for an empty one leaves [last_progress] alone. *)
  let retire st pc =
    st.pc <- pc + 4;
    incr instructions;
    last_progress := !clock
  in
  let execute t st =
    let code = st.code in
    let pc = st.pc in
    let tag = Array.unsafe_get code pc in
    let loc = Array.unsafe_get code (pc + 1) in
    match tag with
    | 0 | 1 ->
      (* Store: value = k * iteration + a (Const stores have k = 0). *)
      let stored =
        (Array.unsafe_get code (pc + 2) * st.iteration)
        + Array.unsafe_get code (pc + 3)
      in
      let cell = if tag = 1 then st.iteration else 0 in
      if model_sc then begin
        Array.unsafe_set memory ((loc * cells) + cell) stored;
        retire st pc;
        if has_events then emit_exec t st stored
      end
      else if st.sb_len >= buffer_capacity then
        () (* stall: buffer full, retry next round *)
      else begin
        let idx = (st.sb_start + st.sb_len) land st.sb_mask in
        Array.unsafe_set st.sb_loc idx loc;
        Array.unsafe_set st.sb_cell idx cell;
        Array.unsafe_set st.sb_val idx stored;
        if st.sb_len = 0 then incr buffered;
        st.sb_len <- st.sb_len + 1;
        if Array.length occ_hist > 0 then
          occ_hist.(st.sb_len) <- occ_hist.(st.sb_len) + 1;
        retire st pc;
        if has_events then emit_exec t st stored
      end
    | 2 | 3 ->
      (* Load: forwarded from the youngest matching buffered store, else
         from memory. *)
      let cell = if tag = 3 then st.iteration else 0 in
      let fwd = if model_sc || st.sb_len = 0 then -1 else sb_find st loc cell in
      let value =
        if fwd >= 0 then Array.unsafe_get st.sb_val fwd
        else Array.unsafe_get memory ((loc * cells) + cell)
      in
      st.regs.(Array.unsafe_get code (pc + 2)) <- value;
      retire st pc;
      if has_events then emit_exec t st value
    | 4 ->
      (* Fence: waits for an empty buffer, except under SC (no buffer)
         and the fence-ignored bug. *)
      if (not fence_waits) || st.sb_len = 0 then begin
        retire st pc;
        if has_events then emit_exec t st 0
      end
    | 5 | 6 ->
      (* Flush: enabled only once no older store to the same cell is
         buffered, so the captured value includes this thread's own
         prior stores (x86 orders CLFLUSH after older stores to the same
         line). *)
      let cell = if tag = 6 then st.iteration else 0 in
      if st.sb_len > 0 && sb_find st loc cell >= 0 then () (* stall *)
      else begin
        let value = Array.unsafe_get memory ((loc * cells) + cell) in
        (match pmem with
        | Some pm -> Pmem.flush pm ~thread:t ~loc ~cell ~value
        | None -> ());
        retire st pc;
        if has_events then emit_exec t st value
      end
    | _ ->
      (* Drain: waits for an empty buffer like MFENCE — under every
         model: the fence-ignored bug targets MFENCE specifically, and
         SC has no buffer to wait for. *)
      if st.sb_len = 0 then begin
        (match pmem with
        | Some pm ->
          Pmem.drain pm ~persistency:config.Config.persistency ~thread:t
        | None -> ());
        retire st pc;
        if has_events then emit_exec t st 0
      end
  in
  (* One thread's scheduling step, given its 16-bit progress lane.
     [@inline] is advisory under Closure, but the call sites are direct. *)
  let step t st plane =
    if jitter_on && st.jitter_skip = 0 then begin
      (* OS jitter: preempt this thread for 1 + Geometric rounds. *)
      st.jitter_skip <- skip_of jitter_table;
      let until = !clock + 1 + skip_of stall_table in
      st.ready_at <- until;
      if has_events then
        (match on_event with
        | Some hook -> hook ~round:!clock (Stall { thread = t; until })
        | None -> ());
      incr stalls
    end
    else begin
      if jitter_on then st.jitter_skip <- st.jitter_skip - 1;
      let fires =
        if st.livelocked then
          if st.progress_skip = 0 then begin
            st.progress_skip <-
              (if Array.length livelock_table = 0 then max_int
               else skip_of livelock_table);
            true
          end
          else begin
            st.progress_skip <- st.progress_skip - 1;
            false
          end
        else plane < progress_threshold
      in
      if fires then begin
        if st.pc >= st.code_len then finish_iteration t st
        else begin
          execute t st;
          if (not st.finished) && (not st.waiting) && st.pc >= st.code_len
          then finish_iteration t st
        end
      end
    end
  in
  (* Fault triggers: crash and hang fire as soon as the thread's
     iteration reaches the armed onset, even while stalled or at the
     barrier.  None draws any lane. *)
  let fault_triggers t st =
    let a = faults.(t) in
    (match a.Fault.crash_at with
    | Some c when (not st.finished) && st.iteration >= c ->
      (* The first crash freezes the persisted image: the durable state
         plus a coin flip per pending writeback, drawn from the run RNG
         (out of the hot loop).  Draws nothing when nothing is pending
         (or without a persistence domain). *)
      (match (pmem, !crash_image) with
      | Some pm, None -> crash_image := Some (Pmem.crash_snapshot pm ~rng)
      | (Some _ | None), _ -> ());
      set_finished st;
      if st.waiting then begin
        st.waiting <- false;
        decr nwaiting
      end
    | Some _ | None -> ());
    (match a.Fault.hang_at with
    | Some h when (not st.hung) && st.iteration >= h ->
      st.hung <- true;
      st.ready_at <- max_int;
      any_hung := true
    | Some _ | None -> ());
    match a.Fault.livelock_at with
    | Some l when (not st.livelocked) && st.iteration >= l ->
      (* Progress collapses by [livelock_factor]: switch the thread to a
         skip counter over the collapsed probability. *)
      st.livelocked <- true;
      st.progress_skip <-
        (if Array.length livelock_table = 0 then max_int
         else skip_of livelock_table)
    | Some _ | None -> ()
  in
  (* Round-robin rotation: the thread scan starts one position later
     every round, which removes systematic thread-order bias just as the
     historical random offset did (both are uniform over cyclic shifts;
     within-round execution order was never a random permutation). *)
  let rot = ref 0 in
  while !aborted = 0 && !live > 0 do
    incr clock;
    if !clock - !last_progress > 2_000_000 then
      failwith
        "Machine.run: livelock (no instruction or drain for 2M rounds; is \
         drain_chance 0 with a full store buffer?)";
    (* Watchdog: polled at the sampling cadence ([>=] so fast-forward
       jumps cannot skip a check).  Observation only — no lane draws. *)
    if !clock >= !next_watchdog then begin
      next_watchdog := !clock + sample_interval;
      match watchdog with
      | Some should_abort ->
        if should_abort ~round:!clock ~iterations:(iteration_snapshot ()) then
          aborted := 1
      | None -> ()
    end;
    if !aborted = 0 then begin
      (* The round mix: threads at scan positions 0-2 read their progress
         lane from [z] positionally; later positions (>= 4 threads) fall
         back to the sequential lane stream. *)
      let z = round_mix ls in
      let offset = !rot in
      rot := (if offset + 1 >= nthreads then 0 else offset + 1);
      for i = 0 to nthreads - 1 do
        let t =
          let t = i + offset in
          if t >= nthreads then t - nthreads else t
        in
        let st = Array.unsafe_get threads t in
        if has_faults then fault_triggers t st;
        if st.ready_at <= !clock then
          step t st
            (if i < 3 then (z lsr (i lsl 4)) land 0xFFFF else lane ())
      done;
      (* Drain phase. *)
      if !buffered > 0 then
        for t = 0 to nthreads - 1 do
          let st = Array.unsafe_get threads t in
          if
            st.sb_len > 0
            && (drain_threshold >= Lane.lane_bound
                || (drain_threshold > 0 && lane () < drain_threshold))
          then drain_one t st
        done;
      (* Barrier rendezvous: fires when every unfinished thread is parked
         (finished threads never wait; hung-while-waiting threads still
         count, exactly as the flag scan did). *)
      if barrier_on && !live > 0 && !nwaiting = !live then begin
        clock := !clock + barrier_cost;
        nwaiting := 0;
        Array.iteri
          (fun t st ->
            if not st.finished then begin
              while st.sb_len > 0 do
                drain_one t st
              done;
              st.waiting <- false;
              st.iteration <- st.iteration + 1;
              st.pc <- 0;
              st.ready_at <-
                (if barrier_skew > 0 then
                   !clock + ((lane () * (barrier_skew + 1)) lsr Lane.lane_bits)
                 else 0);
              if st.iteration >= iterations then set_finished st
            end)
          threads;
        if has_events then
          (match on_event with
          | Some hook -> hook ~round:!clock Barrier_release
          | None -> ());
        incr barriers
      end;
      if !clock >= !next_sample then begin
        (* Fires on exact multiples of the cadence only: rounds the
           fast-forward jumped over do not fire retroactively. *)
        (if !clock mod sample_interval = 0 then
           match on_sample with
           | Some hook -> hook ~round:!clock ~iterations:(iteration_snapshot ())
           | None -> ());
        next_sample := ((!clock / sample_interval) + 1) * sample_interval
      end;
      (* Fast-forward through provably idle spans: when every thread that
         could ever act again is stalled beyond the next round and no
         store buffer has anything to drain, no event can occur until the
         earliest stall expires — jump the clock there.  This keeps
         barrier release skew and long jitter bursts from costing
         simulation time without changing any observable behaviour.
         (Finished, hung and barrier-parked threads sit at [max_int] and
         fall out of the minimum.) *)
      if !buffered = 0 then begin
        ff_earliest := max_int;
        for t = 0 to nthreads - 1 do
          let r = (Array.unsafe_get threads t).ready_at in
          if r < !ff_earliest then ff_earliest := r
        done;
        if !ff_earliest > !clock + 1 && !ff_earliest < max_int then
          clock := !ff_earliest - 1
      end;
      (* Fault quiescence: when every unfinished thread is hung (or parked
         at a barrier that a hung thread prevents from ever releasing) and
         no buffered store remains, no event can ever happen again — abort
         instead of spinning to the livelock limit. *)
      if
        !any_hung && !buffered = 0
        && Array.exists (fun st -> st.hung && not st.finished) threads
        && Array.for_all
             (fun st -> st.finished || st.hung || st.waiting)
             threads
      then aborted := 2
    end
  done;
  (* Termination flush: on real hardware every buffered store eventually
     reaches memory; drain the leftovers, one round each.  An aborted run
     stops dead instead — its in-flight stores are part of the loss. *)
  if !aborted = 0 then
    Array.iteri
      (fun t st ->
        while st.sb_len > 0 do
          incr clock;
          drain_one t st
        done)
      threads;
  let termination =
    match !aborted with 0 -> Completed | 1 -> Watchdog_abort | _ -> Hung
  in
  publish ~mx ~trace_start ~iterations ~occ_hist
  {
    rounds = !clock;
    instructions = !instructions;
    drains = !drains;
    barriers = !barriers;
    stalls = !stalls;
    termination;
    iterations_retired = iteration_snapshot ();
    lost_stores = !lost_stores;
    persisted =
      (match (pmem, !crash_image) with
      | None, _ -> None
      | Some _, (Some _ as snapshot) -> snapshot
      | Some pm, None -> Some (Pmem.durable_snapshot pm));
  }

(* The compiled perpetual kernel: [run]'s schedule for the case with no
   hooks, no watchdog, no faults, no barrier and no persistence domain.
   Each run first compiles every thread's body into one flat int array,
   resolving from the model and the program what [run] decides per
   retired instruction.  Op kinds:

     0  store into the store buffer
     1  store straight to memory (SC: no buffer)
     2  load from memory only (SC, or the thread never stores to the
        location, so no buffered entry can ever match)
     3  load forwarded from the youngest matching buffered store, else
        from memory
     4  fence that retires at once (SC, fence-ignored bug)
     5  fence that waits for an empty buffer
     6  idle: the one op of an empty body, which retires nothing

   Per-thread state is [th_words] ints per thread in one array; the
   store buffers are one ring per thread inside shared flat arrays
   (thread [t]'s ring at [t * ring]).  Loaded values go straight to
   their [bufs] slot, which is where Perpetual's per-iteration register
   copy would put them: registers are only written by loads, and every
   load retires once per iteration, so the last load of a register in an
   iteration is the value the copy would see.

   Every lane is drawn exactly where [run] draws it — progress lanes
   positional for scan positions 0-2 and sequential beyond, jitter then
   stall lengths, one drain coin per non-empty buffer in thread order —
   so a seed gives [run]'s schedule, stats and metrics.  The drain
   phase visits only the threads that store ([writers], ascending): any
   other thread's buffer is always empty, so [run] draws no coin for it
   either.  Under FIFO drains the coin's outcome [d] (0 or 1) is applied
   arithmetically to the memory cell, the ring, [buffered], [drains]
   and [last_progress] instead of through a branch: at the default
   drain chance (0.55) that branch goes either way about half the time,
   which no predictor can learn. *)

(* One compiled op is [op_words] ints of [ops], at the op's offset [p]:
   [p] kind, [p + 1] location, [p + 2] its first cell [loc * cells],
   [p + 3] the indexed-addressing mask (0, or -1 so that the cell is
   [addr + iteration]), [p + 4]/[p + 5] a store's [k]/[a] or a load's
   destination slot (-1: not recorded) and stride.  Eight words keep
   every op inside one cache line. *)
let op_words = 8

(* One thread's state is [th_words] ints of [th], at [t * th_words]:
   ready round, rounds to the next jitter hit, pc (an op offset), current
   iteration, ring start, ring length, first op offset and one past its
   last (an empty body: [first = last], at its idle op).  One array
   instead of one per field leaves the loop fewer pointers to keep live:
   it measured 3-4% faster than nine parallel arrays. *)
let th_words = 8
let th_ready = 0
let th_jitter = 1
let th_pc = 2
let th_iter = 3
let th_start = 4
let th_len = 5
let th_first = 6
let th_last = 7

(* Compile [image] for one run: the [ops] array, each thread's state
   words with [th_first]/[th_last] (and [th_pc]) set, and the threads
   that store, ascending. *)
let compile ~model ~cells ~t_reads (image : Program.image) =
  let programs = image.Program.programs in
  let nthreads = Array.length programs in
  let nops =
    Array.fold_left
      (fun acc (p : Program.thread) -> acc + max 1 (Array.length p.body))
      0 programs
  in
  let ops = Array.make (nops * op_words) 0 in
  let th = Array.make (nthreads * th_words) 0 in
  let sc = model = Config.Sc in
  let next = ref 0 and writers = ref [] in
  Array.iteri
    (fun t (p : Program.thread) ->
      let stride = if t < Array.length t_reads then t_reads.(t) else 0 in
      let set o kind loc addr x y =
        ops.(o) <- kind;
        ops.(o + 1) <- loc;
        ops.(o + 2) <- loc * cells;
        ops.(o + 3) <-
          (match addr with Program.Shared -> 0 | Program.Indexed -> -1);
        ops.(o + 4) <- x;
        ops.(o + 5) <- y
      in
      let stores l =
        Array.exists
          (function Program.Store { loc; _ } -> loc = l | _ -> false)
          p.body
      in
      if Array.exists (function Program.Store _ -> true | _ -> false) p.body
      then writers := t :: !writers;
      Array.iteri
        (fun j instr ->
          let o = (!next + j) * op_words in
          match instr with
          | Program.Store { loc; addr; value = Program.Const a } ->
            set o (if sc then 1 else 0) loc addr 0 a
          | Program.Store { loc; addr; value = Program.Seq { k; a } } ->
            set o (if sc then 1 else 0) loc addr k a
          | Program.Load { loc; addr; reg } ->
            set o
              (if sc || not (stores loc) then 2 else 3)
              loc addr
              (if reg < stride then reg else -1)
              stride
          | Program.Fence ->
            set o (if fence_waits model then 5 else 4) 0 Program.Shared 0 0
          | Program.Flush _ | Program.Drain -> assert false (* rejected *))
        p.body;
      let len = Array.length p.body in
      let b = t * th_words in
      th.(b + th_first) <- !next * op_words;
      th.(b + th_pc) <- !next * op_words;
      th.(b + th_last) <- (!next + len) * op_words;
      if len = 0 then ops.(!next * op_words) <- 6;
      next := !next + max 1 len)
    programs;
  (ops, th, Array.of_list (List.rev !writers))

let run_perpetual ~config ~rng ~image ~iterations ~t_reads ~bufs =
  if iterations <= 0 then invalid_arg "Machine.run: iterations must be > 0";
  let nthreads = Array.length image.Program.programs in
  if config.Config.faults <> [] || Program.uses_persistency image then
    invalid_arg
      "Machine.run_perpetual: faults and persistency need Machine.run";
  if
    Array.length t_reads <> Array.length bufs
    || Array.length t_reads > nthreads
    || Array.exists2
         (fun r buf -> r < 0 || Array.length buf < r * iterations)
         t_reads bufs
  then invalid_arg "Machine.run_perpetual: t_reads/bufs mismatch";
  let mx = Metrics.active () in
  let trace_start = Trace_event.now () in
  let nlocs = Array.length image.Program.location_names in
  let cells = if image_uses_indexed image then iterations else 1 in
  let memory = initial_memory image ~cells in
  let ring = next_pow2 (max 1 config.Config.buffer_capacity) 1 in
  let mask = ring - 1 in
  let model = config.Config.model in
  let ops, th, writers = compile ~model ~cells ~t_reads image in
  let nwriters = Array.length writers in
  let tbuf =
    Array.init nthreads (fun t ->
        if t < Array.length t_reads then bufs.(t) else [||])
  in
  let sb_loc = Array.make (nthreads * ring) 0 in
  let sb_cell = Array.make (nthreads * ring) 0 in
  let sb_val = Array.make (nthreads * ring) 0 in
  let ls = lanes_of_rng rng in
  let lane () = lane_next ls in
  let progress_threshold = Lane.threshold config.Config.progress_chance in
  let drain_threshold = Lane.threshold config.Config.drain_chance in
  (* The drain coin is drawn only for 0 < drain_chance < 1; otherwise
     its outcome is the constant [drain_always]. *)
  let drain_coin = drain_threshold > 0 && drain_threshold < Lane.lane_bound in
  let drain_always = if drain_threshold >= Lane.lane_bound then 1 else 0 in
  let jitter_on = config.Config.jitter_chance > 0.0 in
  let jitter_table, stall_table = jitter_tables config in
  let skip_shift = Lane.shift_for_table in
  for t = 0 to nthreads - 1 do
    th.((t * th_words) + th_jitter) <-
      (if jitter_on then
         Array.unsafe_get jitter_table (lane_next ls lsr skip_shift)
       else max_int)
  done;
  let fifo =
    match model with
    | Config.Sc | Config.Tso | Config.Tso_fence_ignored -> true
    | Config.Pso | Config.Tso_store_reorder -> false
  in
  let buffer_capacity = config.Config.buffer_capacity in
  let pso_locs = Array.make (max 1 nlocs) 0 in
  (* Filled unconditionally (one increment per buffered store, no
     branch); read only when a sink is active. *)
  let occ_hist = Array.make (ring + 1) 0 in
  let live = ref nthreads in
  let buffered = ref 0 in
  let clock = ref 0 in
  let last_progress = ref 0 in
  let instructions = ref 0 in
  let drains = ref 0 in
  let stalls = ref 0 in
  let rot = ref 0 in
  (* A drain taken through [drain_pick]: the non-FIFO models, and the
     termination flush under every model.  Returns whether the buffer
     emptied; the caller keeps [buffered], [drains] and [last_progress],
     which stay unboxed locals only as long as no closure captures
     them. *)
  let drain_picked t =
    let b = t * th_words in
    let base = t * ring in
    let start = Array.unsafe_get th (b + th_start) in
    let len = Array.unsafe_get th (b + th_len) in
    let pos =
      drain_pick model ~lane ~nlocs ~pso_locs ~sb_loc ~base ~start ~mask ~len
    in
    let idx = base + ((start + pos) land mask) in
    let loc = Array.unsafe_get sb_loc idx in
    let cell = Array.unsafe_get sb_cell idx in
    let value = Array.unsafe_get sb_val idx in
    ring_remove_at ~sb_loc ~sb_cell ~sb_val ~base ~start ~mask pos;
    Array.unsafe_set th (b + th_start) ((start + 1) land mask);
    Array.unsafe_set th (b + th_len) (len - 1);
    Array.unsafe_set memory ((loc * cells) + cell) value;
    len = 1
  in
  while !live > 0 do
    incr clock;
    if !clock - !last_progress > 2_000_000 then
      failwith
        "Machine.run: livelock (no instruction or drain for 2M rounds; is \
         drain_chance 0 with a full store buffer?)";
    let z = round_mix ls in
    let offset = !rot in
    rot := (if offset + 1 >= nthreads then 0 else offset + 1);
    for i = 0 to nthreads - 1 do
      let t =
        let t = i + offset in
        if t >= nthreads then t - nthreads else t
      in
      let b = t * th_words in
      if Array.unsafe_get th (b + th_ready) <= !clock then begin
        let plane =
          if i < 3 then (z lsr (i lsl 4)) land 0xFFFF else lane_next ls
        in
        let skip = Array.unsafe_get th (b + th_jitter) in
        if jitter_on && skip = 0 then begin
          (* OS jitter: preempt this thread for 1 + Geometric rounds. *)
          Array.unsafe_set th (b + th_jitter)
            (Array.unsafe_get jitter_table (lane_next ls lsr skip_shift));
          Array.unsafe_set th (b + th_ready)
            (!clock + 1
            + Array.unsafe_get stall_table (lane_next ls lsr skip_shift));
          incr stalls
        end
        else begin
          if jitter_on then Array.unsafe_set th (b + th_jitter) (skip - 1);
          if plane < progress_threshold then begin
            let p = Array.unsafe_get th (b + th_pc) in
            let n = Array.unsafe_get th (b + th_iter) in
            (* [retired] is 1 when the op at [p] retires, 0 when it
               stalls (full buffer, waiting fence) or the body is
               empty. *)
            let retired =
              match Array.unsafe_get ops p with
              | 0 ->
                let len = Array.unsafe_get th (b + th_len) in
                if len < buffer_capacity then begin
                  let idx =
                    (t * ring)
                    + ((Array.unsafe_get th (b + th_start) + len) land mask)
                  in
                  Array.unsafe_set sb_loc idx (Array.unsafe_get ops (p + 1));
                  Array.unsafe_set sb_cell idx
                    (n land Array.unsafe_get ops (p + 3));
                  Array.unsafe_set sb_val idx
                    ((Array.unsafe_get ops (p + 4) * n)
                    + Array.unsafe_get ops (p + 5));
                  (* Branch-free [if len = 0 then incr buffered]. *)
                  buffered := !buffered + ((len - 1) lsr 62);
                  Array.unsafe_set th (b + th_len) (len + 1);
                  Array.unsafe_set occ_hist (len + 1)
                    (Array.unsafe_get occ_hist (len + 1) + 1);
                  1
                end
                else 0
              | 1 ->
                Array.unsafe_set memory
                  (Array.unsafe_get ops (p + 2)
                  + (n land Array.unsafe_get ops (p + 3)))
                  ((Array.unsafe_get ops (p + 4) * n)
                  + Array.unsafe_get ops (p + 5));
                1
              | 2 ->
                let value =
                  Array.unsafe_get memory
                    (Array.unsafe_get ops (p + 2)
                    + (n land Array.unsafe_get ops (p + 3)))
                in
                let slot = Array.unsafe_get ops (p + 4) in
                if slot >= 0 then
                  Array.unsafe_set (Array.unsafe_get tbuf t)
                    ((Array.unsafe_get ops (p + 5) * n) + slot)
                    value;
                1
              | 3 ->
                (* Youngest matching buffered store (backwards ring scan),
                   else memory. *)
                let loc = Array.unsafe_get ops (p + 1) in
                let cell = n land Array.unsafe_get ops (p + 3) in
                let base = t * ring in
                let start = Array.unsafe_get th (b + th_start) in
                let fwd = ref (-1) in
                let k = ref (Array.unsafe_get th (b + th_len) - 1) in
                while !fwd < 0 && !k >= 0 do
                  let idx = base + ((start + !k) land mask) in
                  if
                    Array.unsafe_get sb_loc idx = loc
                    && Array.unsafe_get sb_cell idx = cell
                  then fwd := idx
                  else decr k
                done;
                let value =
                  if !fwd >= 0 then Array.unsafe_get sb_val !fwd
                  else
                    Array.unsafe_get memory (Array.unsafe_get ops (p + 2) + cell)
                in
                let slot = Array.unsafe_get ops (p + 4) in
                if slot >= 0 then
                  Array.unsafe_set (Array.unsafe_get tbuf t)
                    ((Array.unsafe_get ops (p + 5) * n) + slot)
                    value;
                1
              | 4 -> 1
              | 5 -> if Array.unsafe_get th (b + th_len) = 0 then 1 else 0
              | _ -> 0
            in
            instructions := !instructions + retired;
            last_progress :=
              !last_progress + ((!clock - !last_progress) land -retired);
            let p = p + (retired * op_words) in
            if p >= Array.unsafe_get th (b + th_last) then begin
              (* Iteration end. *)
              Array.unsafe_set th (b + th_iter) (n + 1);
              Array.unsafe_set th (b + th_pc)
                (Array.unsafe_get th (b + th_first));
              if n + 1 >= iterations then begin
                Array.unsafe_set th (b + th_ready) max_int;
                decr live
              end
            end
            else Array.unsafe_set th (b + th_pc) p
          end
        end
      end
    done;
    (* Drain phase: one coin per non-empty buffer, in thread order. *)
    if !buffered > 0 then
      for w = 0 to nwriters - 1 do
        let t = Array.unsafe_get writers w in
        let b = t * th_words in
        let len = Array.unsafe_get th (b + th_len) in
        if len > 0 then begin
          let d =
            if drain_coin then (lane_next ls - drain_threshold) lsr 62
            else drain_always
          in
          if fifo then begin
            (* Branch-free: [d] is 0 or 1, [-d] a mask of 0 or all ones. *)
            let m = -d in
            let start = Array.unsafe_get th (b + th_start) in
            let idx = (t * ring) + start in
            let a =
              (Array.unsafe_get sb_loc idx * cells)
              + Array.unsafe_get sb_cell idx
            in
            let old = Array.unsafe_get memory a in
            Array.unsafe_set memory a
              (old + ((Array.unsafe_get sb_val idx - old) land m));
            Array.unsafe_set th (b + th_start) ((start + d) land mask);
            Array.unsafe_set th (b + th_len) (len - d);
            buffered := !buffered - (d land ((len - 2) lsr 62));
            drains := !drains + d;
            last_progress :=
              !last_progress + ((!clock - !last_progress) land m)
          end
          else if d = 1 then begin
            last_progress := !clock;
            if drain_picked t then decr buffered;
            incr drains
          end
        end
      done;
    (* Fast-forward through provably idle spans, exactly as [run]. *)
    if !buffered = 0 then begin
      let earliest = ref max_int in
      for t = 0 to nthreads - 1 do
        let r = Array.unsafe_get th ((t * th_words) + th_ready) in
        if r < !earliest then earliest := r
      done;
      if !earliest > !clock + 1 && !earliest < max_int then
        clock := !earliest - 1
    end
  done;
  (* Termination flush: drain the leftovers, one round each. *)
  for t = 0 to nthreads - 1 do
    while th.((t * th_words) + th_len) > 0 do
      incr clock;
      last_progress := !clock;
      ignore (drain_picked t);
      incr drains
    done
  done;
  publish ~mx ~trace_start ~iterations ~occ_hist
    {
      rounds = !clock;
      instructions = !instructions;
      drains = !drains;
      barriers = 0;
      stalls = !stalls;
      termination = Completed;
      iterations_retired =
        Array.init nthreads (fun t -> th.((t * th_words) + th_iter));
      lost_stores = 0;
      persisted = None;
    }
