(* Append-only CRC-checksummed record journal.

   Line format: 8 lowercase hex chars of CRC-32 over the payload, one
   space, the payload (compact JSON, which never contains a raw newline),
   and '\n'.  Appends are fsync'd; recovery accepts the longest prefix of
   structurally valid, checksum-clean lines and reports the rest as
   dropped.  Validation is strict on purpose: a single flipped bit
   anywhere in a line (checksum field, separator, payload or terminator)
   invalidates that line, so damage can never masquerade as data. *)

(* --- CRC-32 (IEEE 802.3 / zlib polynomial, table-driven) ------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* --- Record encoding ------------------------------------------------------- *)

let encode record =
  let payload = Json.to_string record in
  Printf.sprintf "%08x %s\n" (crc32 payload) payload

(* Strict lowercase-hex parse.  [int_of_string "0x.."] would accept
   uppercase digits, and 'a' vs 'A' differ by exactly one bit — a
   permissive parser would wave some single-bit flips in the checksum
   field straight through. *)
let hex8 s =
  let value = ref 0 in
  let ok = ref (String.length s = 8) in
  if !ok then
    String.iter
      (fun c ->
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | _ ->
            ok := false;
            0
        in
        value := (!value lsl 4) lor d)
      s;
  if !ok then Some !value else None

(* A complete line, newline included.  Any failure means the line (and,
   per the prefix rule, everything after it) is discarded. *)
let decode line =
  if String.length line < 11 || line.[8] <> ' ' then None
  else
    match hex8 (String.sub line 0 8) with
    | None -> None
    | Some crc ->
      let payload = String.sub line 9 (String.length line - 10) in
      if crc32 payload <> crc then None
      else begin
        match Json.parse payload with
        | Ok record -> Some record
        | Error _ -> None
      end

(* --- Recovery -------------------------------------------------------------- *)

type recovery = {
  records : Json.t list;
  lines : string list;
  valid_bytes : int;
  dropped_bytes : int;
}

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | text ->
    let n = String.length text in
    let rec scan pos records lines =
      match String.index_from_opt text pos '\n' with
      | None -> (pos, records, lines) (* torn tail: no terminator *)
      | Some nl -> (
        let line = String.sub text pos (nl + 1 - pos) in
        match decode line with
        | Some record -> scan (nl + 1) (record :: records) (line :: lines)
        | None -> (pos, records, lines))
    in
    let valid_bytes, records, lines =
      if n = 0 then (0, [], []) else scan 0 [] []
    in
    Ok
      {
        records = List.rev records;
        lines = List.rev lines;
        valid_bytes;
        dropped_bytes = n - valid_bytes;
      }

(* --- Appending ------------------------------------------------------------- *)

type t = { fd : Unix.file_descr; mutex : Mutex.t }

let open_mode mode path =
  (* [O_CREAT] may add a directory entry, and fsync'ing the file alone
     does not make that entry durable: after a power cut the journal's
     appends could survive while the file itself has no name.  Sync the
     containing directory whenever this open created the file, the same
     discipline {!Atomic_file.write} applies after its rename. *)
  let existed = Sys.file_exists path in
  let fd = Unix.openfile path (Unix.O_WRONLY :: Unix.O_CLOEXEC :: mode) 0o644 in
  if not existed then Atomic_file.fsync_dir (Filename.dirname path);
  { fd; mutex = Mutex.create () }

let create path = open_mode [ Unix.O_CREAT; Unix.O_TRUNC ] path
let open_append path = open_mode [ Unix.O_CREAT; Unix.O_APPEND ] path

let append_locked t record =
  Atomic_file.write_all t.fd (encode record);
  Unix.fsync t.fd

let append t record =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> append_locked t record)

let try_append t record =
  if Mutex.try_lock t.mutex then begin
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () -> append_locked t record);
    true
  end
  else false

let close t = Unix.close t.fd

(* --- Compaction ------------------------------------------------------------ *)

(* See the interface: the first line in place, the rest as a multiset. *)
let already_compact loaded lines =
  loaded.dropped_bytes = 0
  &&
  match (loaded.lines, lines) with
  | first :: rest, first' :: rest' ->
    first = first'
    && List.sort String.compare rest = List.sort String.compare rest'
  | _ -> false

let compact ~loaded ~path records =
  let lines = List.map encode records in
  if already_compact loaded lines then begin
    (* The durability a rewrite would give: file and directory synced. *)
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd);
    Atomic_file.fsync_dir (Filename.dirname path)
  end
  else Atomic_file.write ~path (String.concat "" lines)
