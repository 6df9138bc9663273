(** Durable append-only campaign journal.

    A journal is a sequence of JSON records, one per line, each protected
    by a CRC-32 checksum:

    {v
    <crc32, 8 lowercase hex chars> <record as compact JSON>\n
    v}

    Appends are [fsync]'d, so every record that {!append} returned for
    survives a crash, an OOM-kill or a power cut.  A crash {e during} an
    append leaves at most one torn line at the tail; {!load} detects torn
    or bit-flipped damage by CRC and structure checks and salvages the
    longest valid record prefix instead of failing, reporting how many
    bytes it dropped.  {!compact} rewrites a journal atomically
    (write → fsync → rename via {!Atomic_file}), which is how recovery
    truncates a damaged tail before new appends continue after it; a
    journal that already is its own compaction is kept in place.

    The format is deliberately line-oriented and self-describing: a
    journal can be inspected with standard shell tools, and record order
    is append order. *)

type t
(** An open journal handle for appending.  Safe to share across domains:
    appends are serialized by an internal mutex. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of a byte string, in
    [\[0, 2^32)]. *)

val encode : Json.t -> string
(** The exact on-disk line for one record, trailing newline included.
    Compact JSON never contains a raw newline ({!Json.escape} covers
    control characters), so one record is always exactly one line. *)

type recovery = {
  records : Json.t list;  (** The longest valid record prefix, in order. *)
  lines : string list;
      (** The on-disk lines of [records], newline included, in the same
          order. *)
  valid_bytes : int;  (** Bytes covered by [records]. *)
  dropped_bytes : int;
      (** Trailing bytes discarded as torn or corrupt; [0] for a clean
          journal. *)
}

val load : string -> (recovery, string) result
(** Read a journal.  Never fails on damaged contents — scanning stops at
    the first torn, checksum-mismatched or unparseable line and everything
    before it is returned.  [Error] only for I/O-level failures (missing
    file, unreadable path). *)

val create : string -> t
(** Open a fresh journal at the path, truncating any existing file. *)

val open_append : string -> t
(** Open an existing (or new) journal for appending.  The caller is
    responsible for having truncated a damaged tail first — see
    {!load} and {!compact}; appending after a torn line would corrupt
    every subsequent record. *)

val append : t -> Json.t -> unit
(** Append one record and [fsync].  When [append] returns, the record is
    on stable storage. *)

val try_append : t -> Json.t -> bool
(** Like {!append} but gives up (returning [false]) instead of blocking
    if another domain holds the journal lock — safe to call from a signal
    handler, where blocking on a mutex the interrupted code may hold
    would deadlock. *)

val close : t -> unit

val compact : loaded:recovery -> path:string -> Json.t list -> unit
(** Atomically replace the journal at [path], which {!load} just read as
    [loaded], with exactly the given records.  Used to truncate recovered
    damage and to snapshot a long journal down to its live records.

    When [loaded] shows the file already compact — nothing dropped, its
    first line the first record's encoding and its other lines exactly
    the other records' encodings, as a multiset in any order — the file
    is kept as it is and only fsync'd, with its directory, instead of
    rewritten.  That is sound whatever the order, since the kept file is
    the one just loaded: the next load rebuilds the same state.  Any
    damage, extra record or differing byte still rewrites the file to
    the given records. *)
