module Rng = Perple_util.Rng

type direction = Model.access = W | R

type edge =
  | Pod of direction * direction
  | Fenced of direction * direction
  | Rfe
  | Fre
  | Wse

let dir_to_string = function W -> "W" | R -> "R"

let edge_to_string = function
  | Pod (a, b) -> Printf.sprintf "Pod%s%s" (dir_to_string a) (dir_to_string b)
  | Fenced (a, b) ->
    Printf.sprintf "MFenced%s%s" (dir_to_string a) (dir_to_string b)
  | Rfe -> "Rfe"
  | Fre -> "Fre"
  | Wse -> "Wse"

let edge_of_string s =
  let low = String.lowercase_ascii s in
  let dir = function
    | 'w' -> Some W
    | 'r' -> Some R
    | _ -> None
  in
  let two prefix =
    let n = String.length prefix in
    if String.length low = n + 2 && String.sub low 0 n = prefix then
      match (dir low.[n], dir low.[n + 1]) with
      | Some a, Some b -> Some (a, b)
      | _ -> None
    else None
  in
  match low with
  | "rfe" -> Ok Rfe
  | "fre" -> Ok Fre
  | "wse" -> Ok Wse
  | _ -> (
    match two "pod" with
    | Some (a, b) -> Ok (Pod (a, b))
    | None -> (
      match two "mfenced" with
      | Some (a, b) -> Ok (Fenced (a, b))
      | None ->
        Error
          (Printf.sprintf
             "unknown edge %S (expected Pod.., MFenced.., Rfe, Fre, Wse)" s)))

let parse_cycle text =
  let words =
    List.filter
      (fun w -> w <> "")
      (String.split_on_char ' ' (String.trim text))
  in
  if words = [] then Error "empty cycle"
  else begin
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | w :: rest -> (
        match edge_of_string w with
        | Ok e -> go (e :: acc) rest
        | Error _ as err -> err)
    in
    go [] words
  end

(* Directions an edge connects: (source event, destination event). *)
let endpoints = function
  | Pod (a, b) | Fenced (a, b) -> (a, b)
  | Rfe -> (W, R)
  | Fre -> (R, W)
  | Wse -> (W, W)

let is_comm = function
  | Rfe | Fre | Wse -> true
  | Pod _ | Fenced _ -> false

let well_formed cycle =
  let n = List.length cycle in
  if n < 2 then Error "cycle needs at least 2 edges"
  else begin
    let arr = Array.of_list cycle in
    let rec chain i =
      if i >= n then Ok ()
      else begin
        let _, dst = endpoints arr.(i) in
        let src, _ = endpoints arr.((i + 1) mod n) in
        if dst <> src then
          Error
            (Printf.sprintf
               "edge %s ends in %s but edge %s starts with %s"
               (edge_to_string arr.(i))
               (dir_to_string dst)
               (edge_to_string arr.((i + 1) mod n))
               (dir_to_string src))
        else chain (i + 1)
      end
    in
    match chain 0 with
    | Error _ as e -> e
    | Ok () ->
      let comms = List.length (List.filter is_comm cycle) in
      if comms < 2 then Error "cycle needs at least 2 communication edges"
      else Ok ()
  end

(* Rotate so the cycle starts with the first edge after a communication
   edge: thread boundaries then align with list position. *)
let normalise cycle =
  let arr = Array.of_list cycle in
  let n = Array.length arr in
  let rec find i = if is_comm arr.((i + n - 1) mod n) then i else find (i + 1) in
  let start = find 0 in
  List.init n (fun i -> arr.((start + i) mod n))

(* An event under construction. *)
type event = {
  id : int;
  thread : int;
  dir : direction;
  mutable loc : int;  (* location class; -1 while unknown *)
  fence_after : bool;
}

let of_cycle ~name cycle =
  match well_formed cycle with
  | Error _ as e -> e
  | Ok () ->
    let cycle = normalise cycle in
    let arr = Array.of_list cycle in
    let n = Array.length arr in
    (* One event per edge source; edge i connects event i to event
       (i+1) mod n.  Threads split at communication edges. *)
    let events =
      Array.init n (fun i ->
          let src, _ = endpoints arr.(i) in
          {
            id = i;
            thread = 0;
            dir = src;
            loc = -1;
            fence_after =
              (match arr.(i) with Fenced _ -> true | _ -> false);
          })
    in
    (* Assign threads: a new thread starts after each comm edge. *)
    let thread = ref 0 in
    let events =
      Array.mapi
        (fun i e ->
          let e = { e with thread = !thread } in
          if is_comm arr.(i) then incr thread;
          e)
        events
    in
    let nthreads = !thread in
    (* The cycle is normalised, so the last edge is a comm edge and the
       wrap-around is a thread boundary, giving exactly [nthreads]
       threads. *)
    (* Location classes: comm edges identify their endpoints' locations
       (a union-find over the edges, so a class is merged whole); po edges
       (all Pod/Fenced here) separate them, checked below. *)
    let parent = Array.init n Fun.id in
    let rec root i = if parent.(i) = i then i else root parent.(i) in
    Array.iteri
      (fun i e ->
        if is_comm e then parent.(root i) <- root ((i + 1) mod n))
      arr;
    (* classes are numbered in order of their first event *)
    let class_loc = Array.make n (-1) and next_loc = ref 0 in
    Array.iteri
      (fun i e ->
        let r = root i in
        if class_loc.(r) < 0 then begin
          class_loc.(r) <- !next_loc;
          incr next_loc
        end;
        e.loc <- class_loc.(r))
      events;
    (* Check po edges connect different locations. *)
    let ok = ref (Ok ()) in
    Array.iteri
      (fun i e ->
        match arr.(i) with
        | Pod _ | Fenced _ ->
          let successor = events.((i + 1) mod n) in
          if e.loc = successor.loc && !ok = Ok () then
            ok :=
              Error
                (Printf.sprintf
                   "edge %d: program-order endpoints share a location"
                   i)
        | Rfe | Fre | Wse -> ())
      events;
    (match !ok with
    | Error _ as e -> e
    | Ok () ->
      if !next_loc > 8 then Error "too many locations"
      else begin
        let loc_name l = Printf.sprintf "%c" (Char.chr (Char.code 'x' + l)) in
        let loc_name l =
          if l < 3 then loc_name l else Printf.sprintf "v%d" l
        in
        (* Communication structure per event: the unique comm in/out
           edges a cycle gives each event. *)
        let rf_in = Array.make n (-1) in
        let fre_out = Array.make n (-1) in
        let wse_pairs = ref [] in
        Array.iteri
          (fun i e ->
            let successor = events.((i + 1) mod n) in
            match arr.(i) with
            | Rfe -> rf_in.(successor.id) <- e.id
            | Fre -> fre_out.(e.id) <- successor.id
            | Wse -> wse_pairs := (e.id, successor.id) :: !wse_pairs
            | Pod _ | Fenced _ -> ())
          events;
        (* Write serialisation order per location.  This generator keeps at
           most two writes per location and honours the ws constraints the
           witness outcome needs: a read with an Rfe in-edge and an Fre
           out-edge pins its rf source ws-before the fr target, and every
           Wse edge orders its endpoints. *)
        let writes_of loc =
          List.filter
            (fun e -> e.dir = W && e.loc = loc)
            (Array.to_list events)
        in
        let constraints = ref [] in
        Array.iter
          (fun e ->
            if e.dir = R && rf_in.(e.id) >= 0 && fre_out.(e.id) >= 0 then begin
              if rf_in.(e.id) = fre_out.(e.id) then
                constraints := (-1, -1) :: !constraints (* contradiction *)
              else constraints := (rf_in.(e.id), fre_out.(e.id)) :: !constraints
            end)
          events;
        List.iter (fun (a, b) -> constraints := (a, b) :: !constraints)
          !wse_pairs;
        let order_error = ref None in
        let ws_rank = Array.make n 0 in
        List.iter
          (fun loc ->
            let ws = writes_of loc in
            match ws with
            | [] | [ _ ] ->
              List.iteri (fun i e -> ws_rank.(e.id) <- i) ws
            | [ a; b ] ->
              let must_ab =
                List.exists (fun c -> c = (a.id, b.id)) !constraints
                (* Same-thread writes to one location are ws-ordered by
                   program order (CoWW). *)
                || (a.thread = b.thread && a.id < b.id)
              in
              let must_ba =
                List.exists (fun c -> c = (b.id, a.id)) !constraints
                || (a.thread = b.thread && b.id < a.id)
              in
              if must_ab && must_ba then
                order_error := Some "conflicting write-order constraints"
              else if must_ba then begin
                ws_rank.(b.id) <- 0;
                ws_rank.(a.id) <- 1
              end
              else begin
                ws_rank.(a.id) <- 0;
                ws_rank.(b.id) <- 1
              end
            | _ :: _ :: _ :: _ ->
              order_error := Some "more than two writes per location")
          (List.init !next_loc Fun.id);
        if List.exists (fun c -> c = (-1, -1)) !constraints then
          order_error := Some "a read cannot both observe and precede a write";
        (* Coherence sanity of the witness: the value each read observes
           must be compatible with the reading thread's own writes to the
           location — at least as new as any po-earlier own write (CoWR)
           and strictly older than any po-later own write (CoRW2).  Ranks:
           -1 denotes the initial value. *)
        let source_rank e =
          if rf_in.(e.id) >= 0 then ws_rank.(rf_in.(e.id))
          else if fre_out.(e.id) >= 0 then ws_rank.(fre_out.(e.id)) - 1
          else min_int (* unconstrained read; no atom is emitted for it *)
        in
        Array.iter
          (fun e ->
            if e.dir = R && source_rank e > min_int then begin
              let rank = source_rank e in
              Array.iter
                (fun w ->
                  if
                    w.dir = W && w.thread = e.thread && w.loc = e.loc
                  then begin
                    if w.id < e.id && ws_rank.(w.id) > rank then
                      order_error :=
                        Some "a read would observe older than an own write"
                    else if w.id > e.id && ws_rank.(w.id) <= rank then
                      order_error :=
                        Some "a read would observe newer than a later own write"
                  end)
                events
            end)
          events;
        match !order_error with
        | Some m -> Error (m ^ " (cycle unrealisable by this generator)")
        | None ->
        (* Values follow ws rank: 1 + rank. *)
        let value = Array.make n 0 in
        Array.iter
          (fun e -> if e.dir = W then value.(e.id) <- ws_rank.(e.id) + 1)
          events;
        (* Registers: per-thread load counter. *)
        let reg = Array.make n (-1) in
        let reg_counter = Array.make nthreads 0 in
        Array.iter
          (fun e ->
            if e.dir = R then begin
              reg.(e.id) <- reg_counter.(e.thread);
              reg_counter.(e.thread) <- reg_counter.(e.thread) + 1
            end)
          events;
        (* Instruction lists per thread, in event order. *)
        let programs = Array.make nthreads [] in
        Array.iter
          (fun e ->
            let instr =
              match e.dir with
              | W -> Ast.Store (loc_name e.loc, value.(e.id))
              | R -> Ast.Load (reg.(e.id), loc_name e.loc)
            in
            let instrs =
              if e.fence_after then [ instr; Ast.Mfence ] else [ instr ]
            in
            programs.(e.thread) <- programs.(e.thread) @ instrs)
          events;
        (* Condition atoms from communication edges. *)
        let atoms = ref [] in
        Array.iteri
          (fun i e ->
            let successor = events.((i + 1) mod n) in
            match arr.(i) with
            | Rfe ->
              (* successor (a read) observes e's write. *)
              atoms :=
                Ast.Reg_eq (successor.thread, reg.(successor.id), value.(e.id))
                :: !atoms
            | Fre ->
              (* e (a read) observes a write ws-before successor.  With an
                 Rfe in-edge the observation is already pinned; the implied
                 ws edge (rf source before fr target) is free when both
                 writes share a thread (CoWW) but otherwise needs a
                 final-memory witness, like Wse.  Without an Rfe in-edge,
                 read the immediate ws-predecessor or the initial value. *)
              if rf_in.(e.id) < 0 then begin
                let v =
                  if ws_rank.(successor.id) = 0 then 0
                  else ws_rank.(successor.id)
                  (* value of the predecessor = rank, since values are
                     rank + 1 *)
                in
                atoms := Ast.Reg_eq (e.thread, reg.(e.id), v) :: !atoms
              end
              else begin
                let w1 = events.(rf_in.(e.id)) in
                if w1.thread <> successor.thread then begin
                  let last =
                    List.fold_left
                      (fun acc o ->
                        match acc with
                        | None -> Some o
                        | Some a ->
                          if ws_rank.(o.id) > ws_rank.(a.id) then Some o
                          else acc)
                      None
                      (writes_of successor.loc)
                  in
                  match last with
                  | Some o ->
                    atoms :=
                      Ast.Loc_eq (loc_name successor.loc, value.(o.id))
                      :: !atoms
                  | None -> ()
                end
              end
            | Wse ->
              (* Witnessed by the final memory value: the ws-last write of
                 the location (with <= 2 writes, that is the successor). *)
              let last =
                List.fold_left
                  (fun acc o ->
                    match acc with
                    | None -> Some o
                    | Some a ->
                      if ws_rank.(o.id) > ws_rank.(a.id) then Some o else acc)
                  None (writes_of e.loc)
              in
              (match last with
              | Some o ->
                atoms := Ast.Loc_eq (loc_name e.loc, value.(o.id)) :: !atoms
              | None -> ())
            | Pod _ | Fenced _ -> ())
          events;
        let test =
          Ast.make ~name
            ~doc:
              (Printf.sprintf "generated from cycle: %s"
                 (String.concat " " (List.map edge_to_string cycle)))
            ~threads:(Array.to_list programs)
            ~condition:
              { Ast.quantifier = Ast.Exists; atoms = List.rev !atoms }
            ()
        in
        match Ast.validate test with
        | Ok () -> Ok test
        | Error e ->
          Error
            (Format.asprintf "generated test invalid: %a" Ast.pp_error e)
      end)

(* The cycle is forbidden under a model iff, in every thread segment, the
   segment's entry event reaches its exit event through ordering the model
   preserves.  A fence anywhere in the segment orders the entry with every
   later access, the exit included.  Without one, preserved program order
   is pairwise, not generated by adjacent steps (W;R;W keeps the outer
   W->W even where both adjacent steps are relaxed), so reachability is
   its transitive closure.  Pairs are judged as different-location, as
   the Pod edges between neighbours are. *)
let predict model cycle =
  let segments, _ =
    List.fold_left
      (fun (segments, current) e ->
        let fenced = match e with Fenced _ -> true | _ -> false in
        let current = (fst (endpoints e), fenced) :: current in
        if is_comm e then (List.rev current :: segments, [])
        else (segments, current))
      ([], []) (normalise cycle)
  in
  let ordered segment =
    List.exists snd segment
    ||
    let dirs = Array.of_list (List.map fst segment) in
    let len = Array.length dirs in
    let reach = Array.make len false in
    reach.(0) <- true;
    for j = 1 to len - 1 do
      for i = 0 to j - 1 do
        if reach.(i) && Model.preserved model dirs.(i) dirs.(j) ~same_loc:false
        then reach.(j) <- true
      done
    done;
    reach.(len - 1)
  in
  not (List.for_all ordered segments)

let random_cycle rng ~max_edges =
  let max_edges = max 4 max_edges in
  (* Build po segments separated by comm edges; ensure chaining. *)
  let target = 4 + Rng.int rng (max_edges - 3) in
  let rec build acc current_dir remaining started =
    if remaining <= 1 then acc
    else begin
      let want_comm =
        remaining <= 2 || (started && Rng.chance rng 0.45)
      in
      if want_comm then begin
        let candidates =
          List.filter
            (fun e -> fst (endpoints e) = current_dir)
            [ Rfe; Fre; Wse ]
        in
        let e = List.nth candidates (Rng.int rng (List.length candidates)) in
        let _, next = endpoints e in
        build (e :: acc) next (remaining - 1) true
      end
      else begin
        let next = if Rng.bool rng then W else R in
        let e =
          if Rng.chance rng 0.2 then Fenced (current_dir, next)
          else Pod (current_dir, next)
        in
        build (e :: acc) next (remaining - 1) true
      end
    end
  in
  (* Start from a W (most comm edges need one) and close the cycle with a
     comm edge back to W. *)
  let body = build [] W target false in
  let cycle =
    match body with
    | [] -> [ Pod (W, R); Fre; Pod (W, R); Fre ]
    | latest :: _ ->
      let _, dir = endpoints latest in
      let closing = match dir with R -> Fre | W -> Wse in
      List.rev (closing :: body)
  in
  match well_formed cycle with
  | Ok () -> cycle
  | Error _ -> [ Pod (W, R); Fre; Pod (W, R); Fre ]

let named_cycles =
  [
    ("sb", "PodWR Fre PodWR Fre");
    ("mp", "PodWW Rfe PodRR Fre");
    ("lb", "PodRW Rfe PodRW Rfe");
    ("wrc", "Rfe PodRW Rfe PodRR Fre");
    ("iriw", "Rfe PodRR Fre Rfe PodRR Fre");
    ("2+2w", "PodWW Wse PodWW Wse");
    ("sb+fences", "MFencedWR Fre MFencedWR Fre");
    ("mp+fences", "MFencedWW Rfe MFencedRR Fre");
    ("r", "PodWW Wse PodWR Fre");
    ("s", "PodWW Rfe PodRW Wse");
  ]
