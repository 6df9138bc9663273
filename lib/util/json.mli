(** Minimal JSON support shared by every emitter in the project (bench
    results, Chrome trace files, metrics summaries) and by the tests that
    round-trip those files.

    Serialization is {e deterministic}: equal trees produce equal bytes
    (fields keep their given order; floats use a fixed format).  The
    parser is strict RFC-8259 JSON — it exists so emitted files can be
    validated without external tooling. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** Escape a string for embedding between JSON double quotes: quotes,
    backslashes, and every control character U+0000–U+001F (the common
    ones as [\n]-style shorthands, the rest as [\u00xx]). *)

val to_string : ?indent:bool -> t -> string
(** Serialize.  [indent] pretty-prints with two-space indentation.
    Non-finite floats (and integral floats too large to round-trip)
    serialize as [null]. *)

val write_file : path:string -> t -> unit
(** [to_string ~indent:true] plus a trailing newline, written to [path]
    atomically ({!Atomic_file.write}): a crash mid-write leaves the
    previous complete file, never a torn document. *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document. *)

val parse_file : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

(** {1 Strict record-field readers}

    Each returns [Error "RECORD: \"NAME\" is not ..."] when the field is
    missing or mistyped, so a damaged record is rejected whole. *)

val int_field : record:string -> string -> t -> (int, string) result
val bool_field : record:string -> string -> t -> (bool, string) result
val string_field : record:string -> string -> t -> (string, string) result

val opt_string_field :
  record:string -> string -> t -> (string option, string) result
(** [Ok None] when the field is absent. *)

val map_result :
  ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** The first error, or every result in order. *)
