(* Python's statistics.quantiles(data, n=4) with its default "exclusive"
   method, reproduced exactly so spreads computed here match the ones a
   Python harness computes from the same values. *)

let quartiles values =
  let data = Array.of_list values in
  Array.sort Float.compare data;
  let ld = Array.length data in
  if ld < 2 then invalid_arg "Quartiles.quartiles: need at least two values";
  let n = 4 and m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((data.(j - 1) *. float_of_int (n - delta)) +. (data.(j) *. float_of_int delta))
    /. float_of_int n
  in
  (cut 1, cut 2, cut 3)

(* Interquartile range as a share of the median. *)
let spread (q1, q2, q3) =
  if q2 = 0. then Float.infinity else (q3 -. q1) /. Float.abs q2
