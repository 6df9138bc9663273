(** Native-int randomness primitives for the simulator hot loop.

    {!Machine.run}'s inner loop draws its scheduling noise (round-robin
    offsets, progress/drain/jitter coins, stall lengths, buggy-model
    drain picks) from a native-int splitmix stream consumed as 16-bit
    {e lanes}, rather than from boxed {!Perple_util.Rng} draws.  This
    module holds the pieces used at run set-up — probability thresholds
    and cached geometric inverse-CDF tables.  The stream itself (its
    state, the splitmix mixer and lane extraction) lives in {!Machine}:
    the dev profile compiles with [-opaque], so only code in the same
    module as the round loop inlines into it.

    The switch from [Rng] is the documented one-time remap of the
    machine's random stream (see docs/internals.md, "Performance"):
    runs are still a pure function of the run seed — the lane stream is
    seeded from one [Rng.bits64] draw — but seeded runs produce
    different (equally valid) schedules than pre-remap builds. *)

val lane_bits : int
(** Bits per lane (16). *)

val lane_bound : int
(** Exclusive upper bound of a lane value (2^16). *)

val threshold : float -> int
(** [threshold p] encodes probability [p] as a lane threshold: an event
    fires iff [lane < threshold p].  [0] = never, {!lane_bound} =
    always; positive probabilities below 2^-16 round up to one step so
    they remain reachable. *)

val geometric_table : float -> int array
(** [geometric_table p] is a cached {!table_size}-entry inverse-CDF
    table of Geometric([p]) (number of failures before the first
    success): indexing it with [lane lsr shift_for_table] draws a whole
    failure run in one read.  The tail beyond the 1/{!table_size}
    quantile is truncated.  Thread-safe; tables live for the process.
    @raise Invalid_argument if [p <= 0]. *)

val table_size : int
(** Entries per geometric table (4096). *)

val shift_for_table : int
(** Right-shift turning a 16-bit lane into a table index (4). *)
