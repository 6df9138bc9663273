(** Quartiles and spreads, as the benchmark's acceptance rules use them. *)

val quartiles : float list -> float * float * float
(** [(q1, median, q3)] exactly as Python's [statistics.quantiles(values,
    n=4)] (method ["exclusive"]).  Raises [Invalid_argument] on fewer
    than two values. *)

val spread : float * float * float -> float
(** [(q3 - q1) / |median|] of [quartiles]' result; infinite when the
    median is [0]. *)
