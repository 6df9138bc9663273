(* Minimal JSON: a tree type, a deterministic serializer and a strict
   parser.  Shared by every emitter in the project (bench results, trace
   files, metrics summaries) so escaping bugs are fixed in one place, and
   by the tests that round-trip those files. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- Escaping ------------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* --- Serialization -------------------------------------------------------- *)

(* Non-finite floats have no JSON spelling: emit null.  Finite floats use
   a fixed format so equal trees always serialize to equal bytes. *)
let float_repr f =
  if Float.is_nan f || Float.is_integer f && Float.abs f > 1e15 then "null"
  else if not (Float.is_finite f) then "null"
  else if Float.is_integer f then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6f" f

let rec add_json b ~indent ~level v =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let sep () = if indent then Buffer.add_string b "\n" in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List items ->
    Buffer.add_char b '[';
    sep ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char b ',';
          sep ()
        end;
        pad (level + 1);
        add_json b ~indent ~level:(level + 1) item)
      items;
    sep ();
    pad level;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
    Buffer.add_char b '{';
    sep ();
    List.iteri
      (fun i (k, item) ->
        if i > 0 then begin
          Buffer.add_char b ',';
          sep ()
        end;
        pad (level + 1);
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b (if indent then "\": " else "\":");
        add_json b ~indent ~level:(level + 1) item)
      fields;
    sep ();
    pad level;
    Buffer.add_char b '}'

let to_string ?(indent = false) v =
  let b = Buffer.create 1024 in
  add_json b ~indent ~level:0 v;
  Buffer.contents b

(* Atomic replacement (write → fsync → rename): a crash mid-dump leaves
   the previous complete file, never a torn JSON document. *)
let write_file ~path v = Atomic_file.write ~path (to_string ~indent:true v ^ "\n")

(* --- Parsing -------------------------------------------------------------- *)

exception Parse_error of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "%s at offset %d" m !pos))) fmt
  in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail "expected %C, found %C" c d
    | None -> fail "expected %C, found end of input" c
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail "invalid literal"
  in
  (* Encode a Unicode scalar value as UTF-8 bytes. *)
  let add_uchar b u =
    if u < 0x80 then Buffer.add_char b (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub text !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "truncated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            let u = hex4 () in
            if u >= 0xD800 && u <= 0xDBFF then begin
              (* High surrogate: require the paired low surrogate. *)
              if
                !pos + 2 <= n
                && text.[!pos] = '\\'
                && text.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let lo = hex4 () in
                if lo < 0xDC00 || lo > 0xDFFF then fail "invalid surrogate pair";
                add_uchar b
                  (0x10000 + (((u - 0xD800) lsl 10) lor (lo - 0xDC00)))
              end
              else fail "unpaired surrogate"
            end
            else add_uchar b u
          | c -> fail "invalid escape \\%C" c));
        go ()
      | Some c when Char.code c < 0x20 -> fail "unescaped control character"
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let any = ref false in
      while
        !pos < n && match text.[!pos] with '0' .. '9' -> true | _ -> false
      do
        any := true;
        advance ()
      done;
      if not !any then fail "malformed number"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let token = String.sub text start (!pos - start) in
    if !is_float then Float (float_of_string token)
    else
      match int_of_string_opt token with
      | Some i -> Int i
      | None -> Float (float_of_string token)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (f :: acc)
          | Some '}' ->
            advance ();
            List.rev (f :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail "unexpected character %C" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

let parse_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse text

(* --- Accessors (for tests and validators) --------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* Strict record-field readers: a record that lost or mistyped a field is
   rejected whole, never half-read.  [record] prefixes the error. *)
let field ~record kind get name v =
  match Option.bind (member name v) get with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "%s: %S is not %s" record name kind)

let int_field ~record =
  field ~record "an int" (function Int i -> Some i | _ -> None)

let bool_field ~record =
  field ~record "a bool" (function Bool b -> Some b | _ -> None)

let string_field ~record =
  field ~record "a string" (function String s -> Some s | _ -> None)

let opt_string_field ~record name v =
  match member name v with
  | None -> Ok None
  | Some _ -> Result.map Option.some (string_field ~record name v)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    Result.bind (f x) (fun y -> Result.map (List.cons y) (map_result f rest))
