module Ast = Perple_litmus.Ast
module Outcome = Perple_litmus.Outcome

type load_ref = { thread : int; frame : int; slot : int; reads : int }

type rf_cond = {
  rf_load : load_ref;
  rf_store : Convert.store;
  store_frame : int;
  exact : bool;
}

type fr_bound = { fb_store : Convert.store; fb_frame : int }

type fr_cond = { fr_load : load_ref; bounds : fr_bound list }

type t = {
  source : Outcome.t;
  rf : rf_cond array;
  fr : fr_cond array;
  unsatisfiable : bool;
}

let load_ref_of (conv : Convert.t) ~thread ~reg =
  match Convert.slot_of_register conv ~thread ~reg with
  | None -> None
  | Some slot ->
    Some
      {
        thread;
        frame = conv.Convert.frame_index.(thread);
        slot;
        reads = conv.Convert.t_reads.(thread);
      }

let convert ?(own_store_exact = true) (conv : Convert.t) outcome =
  let test = conv.Convert.test in
  let rf = ref [] and fr = ref [] in
  let unsatisfiable = ref false in
  let rec go = function
    | [] -> Ok ()
    | binding :: rest -> (
      let { Outcome.thread; reg; value } = binding in
      match load_ref_of conv ~thread ~reg with
      | None ->
        Error
          (Printf.sprintf "no load writes register %d:r%d" thread reg)
      | Some load -> (
        match Ast.register_load test ~thread ~reg with
        | None -> Error "unreachable: load vanished"
        | Some (load_instr, x) ->
          if value = Ast.initial_value test x then begin
            (* A load preceded by an own store to the same location can
               never read the initial (or any coherence-older) value:
               the outcome is unsatisfiable on coherent hardware. *)
            if
              own_store_exact
              && List.exists
                   (fun (other : Convert.store) ->
                     other.Convert.thread = thread
                     && other.Convert.location = x
                     && other.Convert.instr_index < load_instr)
                   conv.Convert.stores
            then unsatisfiable := true;
            (* from-read: older than every store to x at its bound. *)
            let bounds =
              List.filter_map
                (fun (s : Convert.store) ->
                  if s.Convert.location = x then
                    Some
                      {
                        fb_store = s;
                        fb_frame = conv.Convert.frame_index.(s.Convert.thread);
                      }
                  else None)
                conv.Convert.stores
            in
            fr := { fr_load = load; bounds } :: !fr;
            go rest
          end
          else begin
            match Convert.store_for_value conv ~location:x ~value with
            | None ->
              Error
                (Printf.sprintf
                   "condition %d:r%d=%d: no store writes %d to [%s]" thread
                   reg value value x)
            | Some s ->
              (* A po-earlier own store to the same location forces the
                 read to target the frame instance exactly (coherence). *)
              let own_store_before =
                own_store_exact
                && List.exists
                     (fun (other : Convert.store) ->
                       other.Convert.thread = thread
                       && other.Convert.location = x
                       && other.Convert.instr_index < load_instr)
                     conv.Convert.stores
              in
              rf :=
                {
                  rf_load = load;
                  rf_store = s;
                  store_frame = conv.Convert.frame_index.(s.Convert.thread);
                  exact = own_store_before;
                }
                :: !rf;
              go rest
          end))
  in
  match go outcome with
  | Error _ as e -> e
  | Ok () ->
    Ok
      {
        source = outcome;
        rf = Array.of_list (List.rev !rf);
        fr = Array.of_list (List.rev !fr);
        unsatisfiable = !unsatisfiable;
      }

let buf_value bufs (load : load_ref) n =
  bufs.(load.thread).((load.reads * n) + load.slot)

(* Decode [value] as a member of [store]'s sequence; [-1] on mismatch. *)
let member_iteration (store : Convert.store) value =
  if value <= 0 then -1
  else begin
    let k = store.Convert.k in
    let canonical = ((value - 1) mod k) + 1 in
    if canonical <> store.Convert.canonical then -1
    else (value - canonical) / k
  end

(* Single read-from constraint; may pin a store-only thread in [pins]. *)
let eval_rf_cond c ~bufs ~frame ~pins =
  let n = frame.(c.rf_load.frame) in
  let value = buf_value bufs c.rf_load n in
  let iter = member_iteration c.rf_store value in
  if iter < 0 then false
  else if c.store_frame >= 0 then
    if c.exact then iter = frame.(c.store_frame)
    else iter >= frame.(c.store_frame)
  else begin
    let s = c.rf_store.Convert.thread in
    if pins.(s) < 0 then begin
      pins.(s) <- iter;
      true
    end
    else pins.(s) = iter
  end

(* Single from-read constraint; consumes pins set by the rf phase. *)
let eval_fr_cond c ~bufs ~frame ~pins =
  let n = frame.(c.fr_load.frame) in
  let value = buf_value bufs c.fr_load n in
  List.for_all
    (fun b ->
      let bound =
        if b.fb_frame >= 0 then frame.(b.fb_frame)
        else pins.(b.fb_store.Convert.thread)
      in
      if bound < 0 then
        (* No frame variable and no pin: the only sound reading is
           the exact initial value. *)
        value = 0
      else value < Convert.seq_value b.fb_store ~iteration:bound)
    c.bounds

let eval (conv : Convert.t) t ~bufs ~frame =
  t.unsatisfiable = false
  &&
  let nthreads = Array.length conv.Convert.t_reads in
  let pins = Array.make nthreads (-1) in
  (* Phase 1: read-from constraints; they also pin store-only threads. *)
  Array.for_all (fun c -> eval_rf_cond c ~bufs ~frame ~pins) t.rf
  && Array.for_all (fun c -> eval_fr_cond c ~bufs ~frame ~pins) t.fr

(* --- Factorization (counting-kernel decomposition) ----------------------- *)

type component = {
  comp_dims : int array;
  comp_pins : int array;
  comp_rf : int array;
  comp_fr : int array;
}

type shape = Bitset | Pair | Product

type factorization = {
  components : (shape * component) array;
  free_dims : int;
}

(* Nodes of the union-find: frame dimensions [0, tl) and, above them,
   pinned store-only threads [tl + thread].  Every condition unions the
   nodes it touches; pins couple globally (two conditions on the same
   store-only thread share its pin cell in [eval]). *)
let rf_nodes ~tl c =
  c.rf_load.frame
  ::
  (if c.store_frame >= 0 then [ c.store_frame ]
   else [ tl + c.rf_store.Convert.thread ])

let fr_nodes ~tl c =
  c.fr_load.frame
  :: List.map
       (fun b ->
         if b.fb_frame >= 0 then b.fb_frame
         else tl + b.fb_store.Convert.thread)
       c.bounds

let factorize (conv : Convert.t) t =
  let tl = Array.length conv.Convert.load_threads in
  let nthreads = Array.length conv.Convert.t_reads in
  let parent = Array.init (tl + nthreads) Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  let mentioned = Array.make (tl + nthreads) false in
  let touch nodes =
    List.iter (fun n -> mentioned.(n) <- true) nodes;
    match nodes with
    | [] -> ()
    | h :: rest -> List.iter (union h) rest
  in
  Array.iter (fun c -> touch (rf_nodes ~tl c)) t.rf;
  Array.iter (fun c -> touch (fr_nodes ~tl c)) t.fr;
  (* Group mentioned nodes and conditions by root. *)
  let comps = Hashtbl.create 8 in
  let slot root =
    match Hashtbl.find_opt comps root with
    | Some s -> s
    | None ->
      let s = (ref [], ref [], ref [], ref []) in
      Hashtbl.add comps root s;
      s
  in
  let free_dims = ref 0 in
  for d = tl - 1 downto 0 do
    if mentioned.(d) then begin
      let dims, _, _, _ = slot (find d) in
      dims := d :: !dims
    end
    else incr free_dims
  done;
  for p = tl + nthreads - 1 downto tl do
    if mentioned.(p) then begin
      let _, pins, _, _ = slot (find p) in
      pins := (p - tl) :: !pins
    end
  done;
  for i = Array.length t.rf - 1 downto 0 do
    let _, _, rfs, _ = slot (find t.rf.(i).rf_load.frame) in
    rfs := i :: !rfs
  done;
  for i = Array.length t.fr - 1 downto 0 do
    let _, _, _, frs = slot (find t.fr.(i).fr_load.frame) in
    frs := i :: !frs
  done;
  let components =
    Hashtbl.fold
      (fun _ (dims, pins, rfs, frs) acc ->
        let comp =
          {
            comp_dims = Array.of_list !dims;
            comp_pins = Array.of_list !pins;
            comp_rf = Array.of_list !rfs;
            comp_fr = Array.of_list !frs;
          }
        in
        let shape =
          match Array.length comp.comp_dims with
          | 1 -> Bitset
          | 2 when Array.length comp.comp_pins = 0 -> Pair
          | _ -> Product
        in
        (shape, comp) :: acc)
      comps []
  in
  (* Deterministic order: by smallest dimension. *)
  let components =
    List.sort
      (fun (_, a) (_, b) -> compare a.comp_dims.(0) b.comp_dims.(0))
      components
  in
  { components = Array.of_list components; free_dims = !free_dims }

let eval_component t comp ~bufs ~frame ~pins =
  Array.iter (fun p -> pins.(p) <- -1) comp.comp_pins;
  let ok = ref true in
  Array.iter
    (fun i -> if !ok then ok := eval_rf_cond t.rf.(i) ~bufs ~frame ~pins)
    comp.comp_rf;
  Array.iter
    (fun i -> if !ok then ok := eval_fr_cond t.fr.(i) ~bufs ~frame ~pins)
    comp.comp_fr;
  !ok

(* Smallest [j >= 0] with [value < k*j + canonical]. *)
let fr_theta (s : Convert.store) value =
  let d = value - s.Convert.canonical in
  if d < 0 then 0 else (d / s.Convert.k) + 1

(* For a pin-free two-dimensional component: fix [comp_dims ∋ dim := i];
   the conditions whose load sits on [dim] constrain the partner dimension
   to an interval (or rule the row out entirely).  [None] when the local
   part already fails; otherwise [Some (lo, hi)] (possibly empty when
   [lo > hi] after intersection — callers treat that as zero). *)
let pair_interval t comp ~dim ~bufs ~iterations i =
  let lo = ref 0 and hi = ref (iterations - 1) and ok = ref true in
  Array.iter
    (fun ci ->
      let c = t.rf.(ci) in
      if !ok && c.rf_load.frame = dim then begin
        let value = buf_value bufs c.rf_load i in
        let iter = member_iteration c.rf_store value in
        if iter < 0 then ok := false
        else if c.store_frame = dim then begin
          if c.exact then (if iter <> i then ok := false)
          else if iter < i then ok := false
        end
        else if c.exact then begin
          lo := max !lo iter;
          hi := min !hi iter
        end
        else hi := min !hi iter
      end)
    comp.comp_rf;
  Array.iter
    (fun ci ->
      let c = t.fr.(ci) in
      if !ok && c.fr_load.frame = dim then begin
        let value = buf_value bufs c.fr_load i in
        List.iter
          (fun b ->
            if b.fb_frame = dim then begin
              if value >= Convert.seq_value b.fb_store ~iteration:i then
                ok := false
            end
            else lo := max !lo (fr_theta b.fb_store value))
          c.bounds
      end)
    comp.comp_fr;
  if !ok then Some (!lo, !hi) else None

(* Necessary (pruning-only) per-dimension filter for Product components:
   full evaluation of conditions entirely local to [dim], plus decoding
   validity of cross/pinning rf conditions whose load sits on [dim]. *)
let local_candidate t comp ~dim ~bufs i =
  let ok = ref true in
  Array.iter
    (fun ci ->
      let c = t.rf.(ci) in
      if !ok && c.rf_load.frame = dim then begin
        let value = buf_value bufs c.rf_load i in
        let iter = member_iteration c.rf_store value in
        if iter < 0 then ok := false
        else if c.store_frame = dim then
          if c.exact then (if iter <> i then ok := false)
          else if iter < i then ok := false
      end)
    comp.comp_rf;
  Array.iter
    (fun ci ->
      let c = t.fr.(ci) in
      if !ok && c.fr_load.frame = dim then begin
        let value = buf_value bufs c.fr_load i in
        List.iter
          (fun b ->
            if
              b.fb_frame = dim
              && value >= Convert.seq_value b.fb_store ~iteration:i
            then ok := false)
          c.bounds
      end)
    comp.comp_fr;
  !ok

(* --- Heuristic plans ---------------------------------------------------- *)

type derivation = Base | From_rf of int | From_fr of int | Diagonal

type plan = { order : (int * derivation) list }

let heuristic_plan (conv : Convert.t) t =
  let tl = Array.length conv.Convert.load_threads in
  let derived = Array.make tl false in
  let order = ref [] in
  let derive frame d =
    derived.(frame) <- true;
    order := (frame, d) :: !order
  in
  (* The base is the load thread of the outcome's first condition, as in
     the paper's examples (sb iterates thread 0's index). *)
  let base =
    match t.source with
    | [] -> 0
    | first :: _ -> (
      match
        load_ref_of conv ~thread:first.Outcome.thread ~reg:first.Outcome.reg
      with
      | Some load -> load.frame
      | None -> 0)
  in
  if tl > 0 then derive base Base;
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun i c ->
        if
          derived.(c.rf_load.frame) && c.store_frame >= 0
          && not derived.(c.store_frame)
        then begin
          derive c.store_frame (From_rf i);
          progress := true
        end)
      t.rf;
    Array.iteri
      (fun i c ->
        match c.bounds with
        | [ b ] ->
          (* Only a location with a single store yields an unambiguous
             previous-member equality (Fig 8). *)
          if
            derived.(c.fr_load.frame) && b.fb_frame >= 0
            && not derived.(b.fb_frame)
          then begin
            derive b.fb_frame (From_fr i);
            progress := true
          end
        | [] | _ :: _ :: _ -> ())
      t.fr
  done;
  for frame = 0 to tl - 1 do
    if not derived.(frame) then derive frame Diagonal
  done;
  { order = List.rev !order }

let derived_frame (conv : Convert.t) t plan ~bufs ~iterations ~n =
  let tl = Array.length conv.Convert.load_threads in
  let frame = Array.make tl (-1) in
  let ok = ref true in
  List.iter
    (fun (target, d) ->
      if !ok then begin
        let value_of (load : load_ref) =
          let idx = frame.(load.frame) in
          if idx < 0 then None else Some (buf_value bufs load idx)
        in
        let result =
          match d with
          | Base | Diagonal -> Some n
          | From_rf i -> (
            let c = t.rf.(i) in
            match value_of c.rf_load with
            | None -> None
            | Some value ->
              let iter = member_iteration c.rf_store value in
              if iter < 0 then None else Some iter)
          | From_fr i -> (
            let c = t.fr.(i) in
            match (c.bounds, value_of c.fr_load) with
            | [ b ], Some value ->
              if value = 0 then Some 0
              else begin
                let iter = member_iteration b.fb_store value in
                if iter < 0 then None else Some (iter + 1)
              end
            | _, _ -> None)
        in
        match result with
        | Some m when m >= 0 && m < iterations -> frame.(target) <- m
        | Some _ | None -> ok := false
      end)
    plan.order;
  if !ok then Some frame else None

let eval_heuristic conv t plan ~bufs ~iterations ~n =
  match derived_frame conv t plan ~bufs ~iterations ~n with
  | None -> false
  | Some frame -> eval conv t ~bufs ~frame

(* --- Compiled heuristic evaluator ---------------------------------------- *)

(* [eval_heuristic] is called once per machine iteration per outcome, and
   each call allocates scratch arrays, option boxes and closures while
   re-resolving the same record fields.  The compiled form flattens the
   plan and both condition sets into int arrays once per (outcome, plan),
   so the per-iteration evaluation is a pair of allocation-free loops
   over consecutive memory.  Semantics are identical to
   [derived_frame]+[eval]; the plan-construction invariant that every
   step's source frame is derived before use lets the compiled walk drop
   the option boxing. *)

type compiled = {
  cp_false : bool;  (** Unsatisfiable outcome: always evaluates false. *)
  cp_frame : int array;  (** Scratch frame, one cell per load thread. *)
  cp_pins : int array;  (** Scratch pins, one cell per thread. *)
  cp_steps : int array;
      (** Stride 8 per plan step: kind (0 = assign loop index, 1 = derive
          via rf, 2 = derive via single-bound fr), target frame, source
          buffer thread, row width, slot, source frame, k, canonical. *)
  cp_rf : int array;
      (** Stride 8 per rf condition: buffer thread, row width, slot, load
          frame, k, canonical, store frame ([-thread - 1] encodes a pin on
          a store-only thread), exact flag. *)
  cp_fr : int array;
      (** Stride 6 per fr condition: buffer thread, row width, slot, load
          frame, offset and length into [cp_bounds]. *)
  cp_bounds : int array;
      (** Stride 3 per from-read bound: bound frame ([-thread - 1] for a
          pin), k, canonical. *)
}

let compile_heuristic (conv : Convert.t) t plan =
  let tl = Array.length conv.Convert.load_threads in
  let nthreads = Array.length conv.Convert.t_reads in
  let steps =
    List.concat_map
      (fun (target, d) ->
        match d with
        | Base | Diagonal -> [ 0; target; 0; 0; 0; 0; 0; 0 ]
        | From_rf i ->
          let c = t.rf.(i) in
          let l = c.rf_load and s = c.rf_store in
          [
            1; target; l.thread; l.reads; l.slot; l.frame;
            s.Convert.k; s.Convert.canonical;
          ]
        | From_fr i -> (
          let c = t.fr.(i) in
          match c.bounds with
          | [ b ] ->
            let l = c.fr_load and s = b.fb_store in
            [
              2; target; l.thread; l.reads; l.slot; l.frame;
              s.Convert.k; s.Convert.canonical;
            ]
          | [] | _ :: _ :: _ ->
            invalid_arg "compile_heuristic: multi-bound From_fr step"))
      plan.order
  in
  let frame_code f thread = if f >= 0 then f else -thread - 1 in
  let rf =
    Array.to_list t.rf
    |> List.concat_map (fun c ->
           let l = c.rf_load and s = c.rf_store in
           [
             l.thread; l.reads; l.slot; l.frame;
             s.Convert.k; s.Convert.canonical;
             frame_code c.store_frame s.Convert.thread;
             (if c.exact then 1 else 0);
           ])
  in
  let bounds = ref [] and fr = ref [] and off = ref 0 in
  Array.iter
    (fun c ->
      let l = c.fr_load in
      let len = List.length c.bounds in
      fr := [ l.thread; l.reads; l.slot; l.frame; !off; len ] :: !fr;
      off := !off + (3 * len);
      List.iter
        (fun b ->
          bounds :=
            [
              frame_code b.fb_frame b.fb_store.Convert.thread;
              b.fb_store.Convert.k; b.fb_store.Convert.canonical;
            ]
            :: !bounds)
        c.bounds)
    t.fr;
  {
    cp_false = t.unsatisfiable;
    cp_frame = Array.make (max tl 1) 0;
    cp_pins = Array.make (max nthreads 1) (-1);
    cp_steps = Array.of_list steps;
    cp_rf = Array.of_list rf;
    cp_fr = Array.of_list (List.concat (List.rev !fr));
    cp_bounds = Array.of_list (List.concat (List.rev !bounds));
  }

(* [member_iteration] with the store fields unpacked.  [k = 1] (every
   location written by a single store, the common case) needs no
   division: the only residue is 1 and the iteration is [value - 1]. *)
let member_iteration_kc k canonical value =
  if value <= 0 then -1
  else if k = 1 then if canonical = 1 then value - 1 else -1
  else begin
    let c = ((value - 1) mod k) + 1 in
    if c <> canonical then -1 else (value - c) / k
  end
  [@@inline]

let eval_compiled cp ~bufs ~iterations ~n =
  (not cp.cp_false)
  &&
  let frame = cp.cp_frame and pins = cp.cp_pins in
  (* Phase 1: derive the frame along the plan. *)
  let steps = cp.cp_steps in
  let ok = ref true and i = ref 0 in
  let nsteps = Array.length steps in
  while !ok && !i < nsteps do
    let b = !i in
    let kind = Array.unsafe_get steps b in
    if kind = 0 then frame.(steps.(b + 1)) <- n
    else begin
      let idx = frame.(steps.(b + 5)) in
      let value = bufs.(steps.(b + 2)).((steps.(b + 3) * idx) + steps.(b + 4)) in
      let m =
        if kind = 1 then member_iteration_kc steps.(b + 6) steps.(b + 7) value
        else if value = 0 then 0
        else begin
          let it = member_iteration_kc steps.(b + 6) steps.(b + 7) value in
          if it < 0 then -1 else it + 1
        end
      in
      if m >= 0 && m < iterations then frame.(steps.(b + 1)) <- m
      else ok := false
    end;
    i := b + 8
  done;
  !ok
  && begin
       (* Phase 2: check every converted condition on the derived frame. *)
       Array.fill pins 0 (Array.length pins) (-1);
       let rf = cp.cp_rf in
       let i = ref 0 in
       let nrf = Array.length rf in
       while !ok && !i < nrf do
         let b = !i in
         let idx = frame.(rf.(b + 3)) in
         let value = bufs.(rf.(b)).((rf.(b + 1) * idx) + rf.(b + 2)) in
         let iter = member_iteration_kc rf.(b + 4) rf.(b + 5) value in
         if iter < 0 then ok := false
         else begin
           let sf = rf.(b + 6) in
           if sf >= 0 then begin
             if rf.(b + 7) = 1 then (if iter <> frame.(sf) then ok := false)
             else if iter < frame.(sf) then ok := false
           end
           else begin
             let p = -sf - 1 in
             if pins.(p) < 0 then pins.(p) <- iter
             else if pins.(p) <> iter then ok := false
           end
         end;
         i := b + 8
       done;
       let fr = cp.cp_fr and bounds = cp.cp_bounds in
       let i = ref 0 in
       let nfr = Array.length fr in
       while !ok && !i < nfr do
         let b = !i in
         let idx = frame.(fr.(b + 3)) in
         let value = bufs.(fr.(b)).((fr.(b + 1) * idx) + fr.(b + 2)) in
         let o = ref (fr.(b + 4)) in
         let stop = fr.(b + 4) + (3 * fr.(b + 5)) in
         while !ok && !o < stop do
           let bf = bounds.(!o) in
           let bound = if bf >= 0 then frame.(bf) else pins.(-bf - 1) in
           if bound < 0 then (if value <> 0 then ok := false)
           else if value >= (bounds.(!o + 1) * bound) + bounds.(!o + 2) then
             ok := false;
           o := !o + 3
         done;
         i := b + 6
       done;
       !ok
     end

(* --- Rendering ----------------------------------------------------------- *)

let frame_var_name i =
  (* n, m, p, q, ... following the paper's figures. *)
  match i with
  | 0 -> "n"
  | 1 -> "m"
  | 2 -> "p"
  | 3 -> "q"
  | _ -> Printf.sprintf "n%d" i

let buf_access (load : load_ref) var =
  if load.reads = 1 then Printf.sprintf "buf%d[%s]" load.thread var
  else
    Printf.sprintf "buf%d[%d*%s+%d]" load.thread load.reads var load.slot

let seq_text (s : Convert.store) bound_var =
  if s.Convert.k = 1 then
    if s.Convert.canonical = 0 then bound_var
    else Printf.sprintf "%s + %d" bound_var s.Convert.canonical
  else Printf.sprintf "%d*%s + %d" s.Convert.k bound_var s.Convert.canonical

let bound_var (conv : Convert.t) frame_or_thread =
  match frame_or_thread with
  | `Frame f -> frame_var_name f
  | `Pin thread ->
    ignore conv;
    Printf.sprintf "pin%d" thread

let describe (conv : Convert.t) t =
  if t.unsatisfiable then "false (reads older than a po-earlier own store)"
  else
  let parts = ref [] in
  Array.iter
    (fun c ->
      let lhs = buf_access c.rf_load (frame_var_name c.rf_load.frame) in
      let bound =
        if c.store_frame >= 0 then bound_var conv (`Frame c.store_frame)
        else bound_var conv (`Pin c.rf_store.Convert.thread)
      in
      let text =
        if c.store_frame >= 0 then
          Printf.sprintf "%s %s %s" lhs
            (if c.exact then "=" else ">=")
            (seq_text c.rf_store bound)
        else
          Printf.sprintf "%s in seq(%s) defining %s" lhs
            (seq_text c.rf_store "i") bound
      in
      parts := text :: !parts)
    t.rf;
  Array.iter
    (fun c ->
      let lhs = buf_access c.fr_load (frame_var_name c.fr_load.frame) in
      List.iter
        (fun b ->
          let bound =
            if b.fb_frame >= 0 then bound_var conv (`Frame b.fb_frame)
            else bound_var conv (`Pin b.fb_store.Convert.thread)
          in
          parts :=
            Printf.sprintf "%s < %s" lhs (seq_text b.fb_store bound) :: !parts)
        c.bounds)
    t.fr;
  String.concat " && " (List.rev !parts)

let describe_heuristic conv t plan =
  let deriv_text (frame, d) =
    let var = frame_var_name frame in
    match d with
    | Base -> Printf.sprintf "%s := loop index" var
    | Diagonal -> Printf.sprintf "%s := loop index (diagonal)" var
    | From_rf i ->
      let c = t.rf.(i) in
      Printf.sprintf "%s := iter(%s)" var
        (buf_access c.rf_load (frame_var_name c.rf_load.frame))
    | From_fr i ->
      let c = t.fr.(i) in
      Printf.sprintf "%s := iter(%s) + 1" var
        (buf_access c.fr_load (frame_var_name c.fr_load.frame))
  in
  String.concat "; " (List.map deriv_text plan.order)
  ^ " |- " ^ describe conv t
