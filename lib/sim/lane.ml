(* Native-int randomness primitives for the simulator hot loop.

   The machine's inner loop historically drew every decision from
   {!Perple_util.Rng} — a splitmix64 over boxed [Int64], costing an
   allocation and several boxed operations per draw, with the round loop
   making ~6 draws per round.  The hot loop now consumes cheap 16-bit
   "lanes" of a native-int splitmix stream instead (three lanes per
   mix), and turns per-round Bernoulli draws into either threshold
   comparisons or geometric skip counters fed by the inverse-CDF tables
   below.  This module holds the set-up pieces (thresholds and tables);
   the stream itself (state, mixer, lane extraction) lives in {!Machine},
   where the round loop can inline it.

   Determinism: everything here is a pure function of its inputs; the
   machine seeds its stream from one [Rng.bits64] draw of the run RNG,
   so runs remain a function of the run seed alone.  Requires 64-bit
   [int] (the default everywhere dune builds this project). *)

let lane_bits = 16
let lane_bound = 65536

(* A probability as a 16-bit lane threshold: an event with probability
   [p] fires iff [lane < threshold p].  0 means never, [lane_bound]
   means always; probabilities below 2^-16 are rounded UP to one lane
   step so they stay reachable (a 1e-6 progress chance must still make
   progress eventually). *)
let threshold p =
  if p <= 0.0 then 0
  else if p >= 1.0 then lane_bound
  else max 1 (int_of_float (p *. float_of_int lane_bound))

(* Geometric skip tables: [T.(u)] is the [u]-th quantile of the number
   of failures before the first success of a Bernoulli([p]) stream, so
   [T.(lane lsr 4)] draws a whole run of failures in one table read.
   4096 entries (12 of the lane's 16 bits) keep a table at 32 KB —
   L1/L2-resident — while still resolving skips out to the ~1/4096
   tail; beyond that the distribution is truncated, which for
   scheduling noise is invisible.  Tables are cached per probability
   for the life of the process; the cache is mutex-guarded because pool
   workers build tables concurrently. *)
let table_size = 4096

let shift_for_table = lane_bits - 12

let build_table p =
  if p >= 1.0 then Array.make table_size 0
  else begin
    let q = log1p (-.p) in
    Array.init table_size (fun u ->
        let tail =
          (float_of_int (table_size - u) -. 0.5) /. float_of_int table_size
        in
        int_of_float (log tail /. q))
  end

let cache : (float, int array) Hashtbl.t = Hashtbl.create 8
let cache_mutex = Mutex.create ()

let geometric_table p =
  if p <= 0.0 then invalid_arg "Lane.geometric_table: p must be positive";
  Mutex.lock cache_mutex;
  let table =
    match Hashtbl.find_opt cache p with
    | Some t -> t
    | None ->
      let t = build_table p in
      Hashtbl.add cache p t;
      t
  in
  Mutex.unlock cache_mutex;
  table
