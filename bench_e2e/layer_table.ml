module Json = Perple_util.Json

type span = { name : string; tid : int; ts : float; dur : float }

let number = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

let spans_of_chrome doc =
  match Json.member "traceEvents" doc with
  | Some (Json.List events) ->
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | ev :: rest -> (
        match (Json.member "ph" ev, Json.member "name" ev) with
        | Some (Json.String "X"), Some (Json.String name) -> (
          match (number (Json.member "ts" ev), number (Json.member "dur" ev)) with
          | Some ts, Some dur ->
            let tid =
              match Json.member "tid" ev with Some (Json.Int t) -> t | _ -> 0
            in
            collect ({ name; tid; ts; dur } :: acc) rest
          | _ -> Error (Printf.sprintf "span %S lacks a numeric ts or dur" name))
        | _ -> collect acc rest)
    in
    collect [] events
  | _ -> Error "not a Chrome trace: no traceEvents list"

type t = {
  root_us : float;
  unattributed_us : float;
  self_us : (string * float) list;
}

type frame = {
  f_name : string;
  f_start : float;
  f_stop : float;
  mutable covered : float;  (** Summed (clamped) durations of children. *)
  in_root : bool;
}

let fold ~root spans =
  let self = Hashtbl.create 16 in
  let root_us = ref 0. and unattributed = ref 0. in
  let close f =
    let own = Float.max 0. (f.f_stop -. f.f_start -. f.covered) in
    if f.f_name = root then begin
      root_us := !root_us +. (f.f_stop -. f.f_start);
      unattributed := !unattributed +. own
    end
    else if f.in_root then
      Hashtbl.replace self f.f_name
        (own +. Option.value ~default:0. (Hashtbl.find_opt self f.f_name))
  in
  let by_tid = Hashtbl.create 4 in
  (* Recorded order is completion order, so among spans with equal start
     and duration the later-recorded one is the outer. *)
  List.iteri
    (fun i s ->
      Hashtbl.replace by_tid s.tid
        ((i, s) :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.iter
    (fun _ spans ->
      let order (i, a) (j, b) =
        match Float.compare a.ts b.ts with
        | 0 -> (match Float.compare b.dur a.dur with 0 -> compare j i | c -> c)
        | c -> c
      in
      let stack = ref [] in
      let rec pop_finished ts =
        match !stack with
        | top :: rest when top.f_stop <= ts ->
          close top;
          stack := rest;
          pop_finished ts
        | _ -> ()
      in
      List.iter
        (fun (_, s) ->
          pop_finished s.ts;
          let stop = s.ts +. Float.max 0. s.dur in
          let frame =
            match !stack with
            | [] ->
              { f_name = s.name; f_start = s.ts; f_stop = stop; covered = 0.;
                in_root = s.name = root }
            | parent :: _ ->
              let stop = Float.min stop parent.f_stop in
              parent.covered <- parent.covered +. (stop -. s.ts);
              { f_name = s.name; f_start = s.ts; f_stop = stop; covered = 0.;
                in_root = parent.in_root || s.name = root }
          in
          stack := frame :: !stack)
        (List.sort order spans);
      List.iter close !stack)
    by_tid;
  {
    root_us = !root_us;
    unattributed_us = !unattributed;
    self_us =
      List.sort
        (fun (a, x) (b, y) -> match Float.compare y x with 0 -> compare a b | c -> c)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []);
  }

let self t name = Option.value ~default:0. (List.assoc_opt name t.self_us)
