(* Small measurement helpers shared by every workload: clocks, order
   statistics, process resource readings and the final JSON line. *)

module Json = Dvs_obs.Json

let now = Unix.gettimeofday

(* Process CPU seconds (user + system, every domain and thread). *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> invalid_arg "median: empty"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile, the convention [Dvs_service.Loadgen] uses. *)
let percentile xs q =
  match Array.of_list (sorted xs) with
  | [||] -> invalid_arg "percentile: empty"
  | a ->
    let n = Array.length a in
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(Int.max 0 (Int.min (n - 1) i))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let max_list = List.fold_left Float.max 0.0

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* A Fisher-Yates shuffle driven by the workload seed: the seed decides
   the order ops run in and which points get the cycle-accurate check. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Dvs_workloads.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The result line: the last line the command prints. *)
let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, v, u) ->
                  ( n,
                    Json.Obj
                      [ ("value", Json.Float v); ("unit", Json.String u) ] ))
                metrics) ) ])
