module Ast = Perple_litmus.Ast
module Program = Perple_sim.Program

type store = {
  location : string;
  loc_id : int;
  thread : int;
  instr_index : int;
  constant : int;
  canonical : int;
  k : int;
}

type t = {
  test : Ast.t;
  image : Program.image;
  t_reads : int array;
  load_threads : int array;
  frame_index : int array;
  stores : store list;
  k_by_loc : int array;
  by_residue : store option array array;
}

type reason =
  | Memory_condition of Ast.location
  | Nonzero_initial of Ast.location
  | Invalid of Ast.error

let pp_reason ppf = function
  | Memory_condition x ->
    Format.fprintf ppf
      "final condition inspects shared location [%s]; perpetual tests can \
       only determine register outcomes (paper, Sec V-C)"
      x
  | Nonzero_initial x ->
    Format.fprintf ppf
      "location [%s] has a non-zero initial value; 0 is reserved for \
       decoding"
      x
  | Invalid e -> Ast.pp_error ppf e

let seq_value store ~iteration = (store.k * iteration) + store.canonical

let convert_body test =
  match Ast.validate test with
  | Error e -> Error (Invalid e)
  | Ok () -> (
    match
      List.find_opt (fun x -> Ast.initial_value test x <> 0)
        (Ast.locations test)
    with
    | Some x -> Error (Nonzero_initial x)
    | None ->
      let names = Array.of_list (Ast.locations test) in
      let loc_id name =
        let rec find i =
          if names.(i) = name then i else find (i + 1)
        in
        find 0
      in
      let k_by_loc =
        Array.map
          (fun x -> List.length (Ast.store_constants test x))
          names
      in
      (* Canonical residue of a store constant: its 1-based rank among the
         distinct constants stored to the location. *)
      let canonical_of x a =
        let rec rank i = function
          | [] -> invalid_arg "canonical_of"
          | c :: rest -> if c = a then i else rank (i + 1) rest
        in
        rank 1 (Ast.store_constants test x)
      in
      let stores =
        List.concat_map
          (fun x ->
            List.map
              (fun (thread, instr_index, a) ->
                {
                  location = x;
                  loc_id = loc_id x;
                  thread;
                  instr_index;
                  constant = a;
                  canonical = canonical_of x a;
                  k = k_by_loc.(loc_id x);
                })
              (Ast.stores_to test x))
          (Array.to_list names)
      in
      let compile_thread thread program =
        let slot = ref 0 in
        let body =
          Array.mapi
            (fun instr_index instr ->
              match instr with
              | Ast.Store (x, a) ->
                let id = loc_id x in
                Program.Store
                  {
                    loc = id;
                    addr = Program.Shared;
                    value =
                      Program.Seq
                        { k = k_by_loc.(id); a = canonical_of x a };
                  }
              | Ast.Load (_, x) ->
                let this = !slot in
                incr slot;
                ignore instr_index;
                Program.Load
                  { loc = loc_id x; addr = Program.Shared; reg = this }
              | Ast.Mfence -> Program.Fence
              | Ast.Flush x ->
                Program.Flush { loc = loc_id x; addr = Program.Shared }
              | Ast.Drain -> Program.Drain)
            program
        in
        ignore thread;
        { Program.body; reg_count = !slot }
      in
      let programs = Array.mapi compile_thread test.Ast.threads in
      let image =
        {
          Program.programs;
          location_names = names;
          init = Array.map (fun _ -> 0) names;
        }
      in
      (* The store each (location, residue) decodes to: the first in
         [stores] order. *)
      let by_residue = Array.map (fun k -> Array.make (k + 1) None) k_by_loc in
      List.iter
        (fun s ->
          let slot = by_residue.(s.loc_id) in
          if Option.is_none slot.(s.canonical) then
            slot.(s.canonical) <- Some s)
        stores;
      let t_reads = Ast.loads_per_thread test in
      let load_threads = Array.of_list (Ast.load_threads test) in
      let frame_index = Array.make (Ast.thread_count test) (-1) in
      Array.iteri (fun i t -> frame_index.(t) <- i) load_threads;
      Ok
        {
          test;
          image;
          t_reads;
          load_threads;
          frame_index;
          stores;
          k_by_loc;
          by_residue;
        })

let convert test =
  match
    List.find_map
      (function Ast.Loc_eq (x, _) -> Some x | Ast.Reg_eq _ -> None)
      test.Ast.condition.atoms
  with
  | Some x -> Error (Memory_condition x)
  | None -> convert_body test

type decoded = Initial | Member of { store : store; iteration : int }

let member t ~loc_id ~value =
  let k = t.k_by_loc.(loc_id) in
  if value <= 0 || k = 0 then None
  else t.by_residue.(loc_id).(((value - 1) mod k) + 1)

let iteration_of store ~value = (value - store.canonical) / store.k

let decode t ~loc_id ~value =
  if value = 0 then Some Initial
  else
    match member t ~loc_id ~value with
    | Some store ->
      Some (Member { store; iteration = iteration_of store ~value })
    | None -> None

let store_for_value t ~location ~value =
  List.find_opt
    (fun s -> s.location = location && s.constant = value)
    t.stores

let slot_of_register t ~thread ~reg =
  match Ast.register_load t.test ~thread ~reg with
  | None -> None
  | Some (instr, _) -> Some (Ast.load_slot t.test ~thread ~instr)
