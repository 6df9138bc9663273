(* compare.exe — judge result files written by `e2e.exe --out FILE`.

   Usage (from the repository root):
     compare.exe BASE.jsonl HEAD.jsonl
       Per workload and metric: each side's median and quartiles, and
       - the win rule: HEAD beats BASE in at least 9 of every 10 pairs
         (runs paired in file order; run them alternating, >= 10 pairs;
         ties count for neither) and the medians differ by more than
         BASE's interquartile range;
       - for end-to-end metrics, a regression when HEAD's median is worse
         than BASE's by more than the metric's bound, or "unresolved" when
         a side's spread exceeds the bound and not every HEAD run beats
         every BASE run.
       Exit 1 on a regression or when HEAD failed more operations.
     compare.exe --agree SET1.jsonl SET2.jsonl
       Two sets of runs of the same code: every end-to-end spread (IQR over
       median) within its bound, SET2's median not worse than SET1's by
       more than the bound, and every count-unit metric identical between
       runs of the same workload and seed.  Exit 1 when any check fails.

   Directions and bounds come from BENCHMARK.json in the current
   directory.  Quartiles are Python's statistics.quantiles(values, n=4).
   Both modes also print each side's median host speed, the factor e2e.exe
   scaled every time by.  Alternating pairs see the same host, so a gap
   above 5% between BASE and HEAD means the code under test loads the host
   between operations, and its scaled times are not comparable. *)

module Json = Perple_util.Json
module Q = Bench_e2e.Quartiles

type run = {
  workload : string;
  seed : int;
  failed : int;
  host_speed : float option;
  metrics : (string * (float * string)) list;  (** name -> value, unit *)
}

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("compare: " ^ m); exit 2) fmt

let number = function Some (Json.Int i) -> Some (float_of_int i) | Some (Json.Float f) -> Some f | _ -> None

let load path =
  let text = try In_channel.with_open_text path In_channel.input_all with Sys_error m -> die "%s" m in
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match Json.parse line with
        | Error m -> die "%s: %s" path m
        | Ok j ->
          let str k = match Json.member k j with Some (Json.String s) -> s | _ -> die "%s: no %S" path k in
          let int k = match Json.member k j with Some (Json.Int i) -> i | _ -> die "%s: no %S" path k in
          let metrics =
            match Json.member "metrics" j with
            | Some (Json.Obj fields) ->
              List.map
                (fun (name, v) ->
                  match (number (Json.member "value" v), Json.member "unit" v) with
                  | Some x, Some (Json.String u) -> (name, (x, u))
                  | _ -> die "%s: metric %S lacks a value or unit" path name)
                fields
            | _ -> die "%s: no metrics object" path
          in
          Some
            { workload = str "workload"; seed = int "seed"; failed = int "failed";
              host_speed = number (Json.member "host_speed" j); metrics })
    (String.split_on_char '\n' text)

(* name -> (better is lower, bound for end-to-end metrics) *)
let directions path =
  match Json.parse_file path with
  | exception Sys_error m -> die "%s" m
  | Error m -> die "%s: %s" path m
  | Ok j ->
    let section key ~e2e =
      match Json.member key j with
      | Some (Json.List items) ->
        List.map
          (fun it ->
            let name = match Json.member "name" it with Some (Json.String s) -> s | _ -> die "%s: unnamed metric" path in
            let lower = Json.member "better" it = Some (Json.String "lower") in
            (name, (lower, if e2e then number (Json.member "bound" it) else None)))
          items
      | _ -> []
    in
    section "end_to_end" ~e2e:true @ section "per_layer" ~e2e:false

(* Values of one metric for one workload, in file order. *)
let series runs ~workload ~name =
  List.filter_map
    (fun r -> if r.workload = workload then Option.map fst (List.assoc_opt name r.metrics) else None)
    runs

let keys runs =
  List.sort_uniq compare
    (List.concat_map (fun r -> List.map (fun (name, _) -> (r.workload, name)) r.metrics) runs)

let quart = function [] | [ _ ] -> None | values -> Some (Q.quartiles values)

let show = function
  | None -> Printf.sprintf "%-36s" "(fewer than two runs)"
  | Some (q1, q2, q3) -> Printf.sprintf "%11.5g [%10.5g %10.5g]" q2 q1 q3

let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []

let compare_sets dirs base head =
  let bad = ref false in
  Printf.printf "%-16s %-36s %-36s %-36s %s\n" "workload" "metric" "base median [q1 q3]"
    "head median [q1 q3]" "verdict";
  List.iter
    (fun (workload, name) ->
      let b = series base ~workload ~name and h = series head ~workload ~name in
      if b <> [] && h <> [] then begin
        let qb = quart b and qh = quart h in
        let verdict =
          match (List.assoc_opt name dirs, qb, qh) with
          | None, _, _ -> "no direction"
          | _, None, _ | _, _, None -> "too few runs"
          | Some (lower, bound), Some (b1, bm, b3), Some (h1, hm, h3) ->
            let better x y = if lower then x < y else x > y in
            let n = min (List.length b) (List.length h) in
            let wins =
              List.length (List.filter Fun.id (List.map2 better (take n h) (take n b)))
            in
            let win = wins * 10 >= 9 * n && Float.abs (hm -. bm) > b3 -. b1 in
            let pairs = Printf.sprintf "%d/%d pairs%s" wins n (if n < 10 then " (<10)" else "") in
            (match bound with
            | None -> if win then "WIN " ^ pairs else pairs
            | Some bound ->
              let worse = if lower then (hm -. bm) /. bm else (bm -. hm) /. bm in
              let spread = Float.max (Q.spread (b1, bm, b3)) (Q.spread (h1, hm, h3)) in
              let all_better = List.for_all (fun x -> List.for_all (better x) b) h in
              if win then "WIN " ^ pairs
              else if spread > bound && not all_better then "unresolved (spread " ^ Printf.sprintf "%.3f" spread ^ ")"
              else if worse > bound then begin
                bad := true;
                Printf.sprintf "REGRESSION %.1f%% > %.0f%%" (100. *. worse) (100. *. bound)
              end
              else
                Printf.sprintf "within bound (%.1f%% %s) %s" (100. *. Float.abs worse)
                  (if worse > 0. then "worse" else "better") pairs)
        in
        Printf.printf "%-16s %-36s %s %s %s\n" workload name (show qb) (show qh) verdict
      end)
    (keys head);
  let failed runs = List.fold_left (fun n r -> n + r.failed) 0 runs in
  if failed head > failed base then begin
    bad := true;
    Printf.printf "HEAD failed %d operations, BASE %d: no gain counts\n" (failed head) (failed base)
  end;
  !bad

let agree dirs s1 s2 =
  let bad = ref false in
  let flag fmt = Printf.ksprintf (fun m -> bad := true; Printf.printf "FAIL %s\n" m) fmt in
  List.iter
    (fun (workload, name) ->
      match List.assoc_opt name dirs with
      | Some (lower, Some bound) -> (
        let v1 = series s1 ~workload ~name and v2 = series s2 ~workload ~name in
        match (quart v1, quart v2) with
        | Some (a1, m1, a3), Some (b1, m2, b3) ->
          let sp1 = Q.spread (a1, m1, a3) and sp2 = Q.spread (b1, m2, b3) in
          let drift = if lower then (m2 -. m1) /. m1 else (m1 -. m2) /. m1 in
          Printf.printf "%-16s %-16s spread %.4f %.4f  median %.6g -> %.6g (%+.2f%% worse)  bound %.2f\n"
            workload name sp1 sp2 m1 m2 (100. *. drift) bound;
          if sp1 > bound || sp2 > bound then
            flag "%s %s: spread above bound %.2f" workload name bound;
          if drift > bound then flag "%s %s: second median worse by %.1f%%" workload name (100. *. drift)
        | _ -> flag "%s %s: fewer than two runs in a set" workload name)
      | _ -> ())
    (keys (s1 @ s2));
  (* Count-unit metrics must repeat exactly for the same workload and seed. *)
  let all = s1 @ s2 in
  List.iter
    (fun r ->
      List.iter
        (fun (name, (v, u)) ->
          if u = "count" then
            List.iter
              (fun r' ->
                if r'.workload = r.workload && r'.seed = r.seed then
                  match List.assoc_opt name r'.metrics with
                  | Some (v', _) when v' <> v ->
                    flag "%s %s seed %d: count %g vs %g" r.workload name r.seed v v'
                  | _ -> ())
              all)
        r.metrics)
    all;
  !bad

let host_speeds a b =
  let median runs =
    match List.filter_map (fun r -> r.host_speed) runs with
    | [] -> None
    | ks -> Some (Perple_util.Stats.median (Array.of_list ks))
  in
  match (median a, median b) with
  | Some ka, Some kb ->
    let gap = Float.abs (kb -. ka) /. ka in
    Printf.printf "host speed median %.3f / %.3f%s\n" ka kb
      (if gap > 0.05 then Printf.sprintf " (NOTE: %.0f%% apart)" (100. *. gap) else "")
  | _ -> ()

let () =
  let agree_mode = ref false and files = ref [] in
  Arg.parse
    [ ("--agree", Arg.Set agree_mode, " check two sets of the same code against the bounds") ]
    (fun f -> files := !files @ [ f ])
    "compare.exe [--agree] A.jsonl B.jsonl";
  match !files with
  | [ a; b ] ->
    let dirs = directions "BENCHMARK.json" and a = load a and b = load b in
    host_speeds a b;
    let bad = (if !agree_mode then agree else compare_sets) dirs a b in
    exit (if bad then 1 else 0)
  | _ -> die "expected two result files"
