(* Child processes of the system under test: spawn, capture, sample peak
   RSS, terminate, and never leave one behind. *)

let live : int list ref = ref []

let forget pid = live := List.filter (( <> ) pid) !live

let now = Unix.gettimeofday

let open_log path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0

let spawn_with ~stdout ~stderr argv =
  let stdin = devnull () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close stdin) (fun () ->
        Unix.create_process argv.(0) argv stdin stdout stderr)
  in
  live := pid :: !live;
  pid

(* Peak resident set size so far, from /proc/<pid>/status; [None] once the
   process has exited (a zombie reports no memory lines). *)
let hwm_kb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
  with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> int_of_string_opt kb
          | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' text)

let rec waitpid_retry flags pid =
  match Unix.waitpid flags pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let reap pid =
  let _, status = waitpid_retry [] pid in
  forget pid;
  status

let exited pid =
  match waitpid_retry [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status ->
    forget pid;
    Some status

type capture = {
  status : Unix.process_status option;  (** [None]: killed at the deadline. *)
  stdout : string;
  seconds : float;
  peak_kb : int;
}

(* Peak RSS of a running child is sampled at most this many seconds apart
   (and on every read), so growth in its last few milliseconds can be
   missed. *)
let sample_every = 0.005

(* Run to completion, capturing stdout. *)
let run ~timeout ~log argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let err = open_log log in
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close wr;
        Unix.close err)
      (fun () -> spawn_with ~stdout:wr ~stderr:err argv)
  in
  let out = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let peak = ref 0 in
  let sample () = Option.iter (fun kb -> peak := max !peak kb) (hwm_kb pid) in
  let deadline = t0 +. timeout in
  let rec pump () =
    if now () > deadline then false
    else
      match Unix.select [ rd ] [] [] sample_every with
      | [], _, _ ->
        sample ();
        pump ()
      | _ -> (
        match Unix.read rd chunk 0 (Bytes.length chunk) with
        | 0 -> true
        | n ->
          Buffer.add_subbytes out chunk 0 n;
          sample ();
          pump ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
  in
  let finished = Fun.protect ~finally:(fun () -> Unix.close rd) pump in
  sample ();
  let status =
    if finished then Some (reap pid)
    else begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid);
      None
    end
  in
  { status; stdout = Buffer.contents out; seconds = now () -. t0; peak_kb = !peak }

let spawn ~log argv =
  let out = open_log log in
  Fun.protect ~finally:(fun () -> Unix.close out) (fun () ->
      spawn_with ~stdout:out ~stderr:out argv)

(* SIGTERM, then SIGKILL if the process has not exited within 5 s; always
   reaped. *)
let terminate pid =
  if List.mem pid !live then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 5. in
    let rec wait () =
      match exited pid with
      | Some status -> status
      | None ->
        if now () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid
        end
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
    in
    ignore (wait ())
  end

(* On a shared VM host an idle vCPU gives its physical core back, so a
   workload that idles often (a daemon waiting in its select loop) ran on
   one core where a busy one got two: a two-process compute probe took
   30-40 ms during the daemon workload and 15-20 ms during cli-campaign on
   the 2-core reference container.  Two spinners under SCHED_IDLE (nice 19
   where chrt is missing) keep both vCPUs busy for the whole run; the
   kernel runs them only when nothing else is runnable.  The current
   executable must loop forever when given [--spin]. *)
let spinners = ref []

let start_spinners ~log =
  let spawn_all prefix =
    List.init 2 (fun _ -> spawn ~log (Array.of_list (prefix @ [ Sys.executable_name; "--spin" ])))
  in
  let pids = spawn_all [ "chrt"; "--idle"; "0" ] in
  Unix.sleepf 0.05;
  spinners :=
    if List.for_all (fun pid -> exited pid = None) pids then pids
    else begin
      List.iter terminate pids;
      spawn_all [ "nice"; "-n"; "19" ]
    end

let stop_spinners () =
  List.iter terminate !spinners;
  spinners := []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !live

(* Wait until [path] exists (a daemon bound its socket), failing early if
   [pid] died first. *)
let await_file ~pid ~timeout path =
  let deadline = now () +. timeout in
  let rec go () =
    if Sys.file_exists path then Ok ()
    else
      match exited pid with
      | Some _ -> Error (Printf.sprintf "process exited before creating %s" path)
      | None ->
        if now () > deadline then Error (Printf.sprintf "timed out waiting for %s" path)
        else begin
          Unix.sleepf 0.0005;
          go ()
        end
  in
  go ()

(* The filesystem type holding [path], from the longest matching mount
   point in /proc/self/mountinfo. *)
let fs_type path =
  let abs = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
  let covers mount =
    mount = "/"
    || String.length abs >= String.length mount
       && String.sub abs 0 (String.length mount) = mount
       && (String.length abs = String.length mount || abs.[String.length mount] = '/')
  in
  match In_channel.with_open_text "/proc/self/mountinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
    let best =
      List.fold_left
        (fun best line ->
          match String.split_on_char ' ' line with
          | _ :: _ :: _ :: _ :: mount :: rest -> (
            let rec after_dash = function
              | "-" :: fstype :: _ -> Some fstype
              | _ :: tl -> after_dash tl
              | [] -> None
            in
            match after_dash rest with
            | Some fstype when covers mount -> (
              match best with
              | Some (m, _) when String.length m >= String.length mount -> best
              | _ -> Some (mount, fstype))
            | _ -> best)
          | _ -> best)
        None
        (String.split_on_char '\n' text)
    in
    Option.fold ~none:"unknown" ~some:snd best
