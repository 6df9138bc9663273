(** Fold a Chrome trace into per-span-name self time.

    A span's self time is its duration minus the part of that interval
    its child spans cover.  Spans nest per thread ([tid]): on each
    thread, a span is the child of the innermost earlier span whose
    interval contains its start.  Durations are clamped at [0], and a
    child that outlives its parent is clamped to the parent's end, so
    on every thread the self times of a root span and of everything
    nested in it sum to exactly the root's duration. *)

type span = { name : string; tid : int; ts : float; dur : float }
(** One complete ("X") event; [ts] and [dur] in microseconds. *)

val spans_of_chrome : Perple_util.Json.t -> (span list, string) result
(** The complete events of a [{"traceEvents": [...]}] document; instant
    and other phases are skipped. *)

type t = {
  root_us : float;  (** Summed duration of the spans named [root]. *)
  unattributed_us : float;  (** The root spans' own self time. *)
  self_us : (string * float) list;
      (** Self time per span name inside the roots (the root name
          excluded), largest first. *)
}

val fold : root:string -> span list -> t
(** Spans outside every [root] span are ignored. *)

val self : t -> string -> float
(** Self time of one span name, [0.] if absent. *)
