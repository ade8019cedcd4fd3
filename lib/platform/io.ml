module Graph = Resched_taskgraph.Graph
module Resource = Resched_fabric.Resource
module Device = Resched_fabric.Device

let to_string (t : Instance.t) =
  let device_name = t.arch.Arch.device.Device.name in
  if Device.by_name device_name = None then
    invalid_arg "Io.to_string: device is not a named preset";
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  addf "# resched instance";
  addf "arch processors %d recfreq %g device %s" t.arch.Arch.processors
    t.arch.Arch.bits_per_tick device_name;
  let n = Instance.size t in
  addf "tasks %d" n;
  for u = 0 to n - 1 do
    addf "task %d name %s" u t.names.(u);
    Array.iter
      (fun (i : Impl.t) ->
        match i.kind with
        | Impl.Sw -> addf "impl sw time %d" i.time
        | Impl.Hw ->
          let r = i.res in
          let m =
            match i.module_id with
            | None -> ""
            | Some id -> Printf.sprintf " module %d" id
          in
          addf "impl hw time %d clb %d bram %d dsp %d%s" i.time r.Resource.clb
            r.Resource.bram r.Resource.dsp m)
      t.impls.(u)
  done;
  List.iter (fun (u, v) -> addf "edge %d %d" u v) (Graph.edges t.graph);
  Buffer.contents buf

type parse_state = {
  mutable arch : Arch.t option;
  mutable tasks : int;
  mutable names : string array;
  mutable impls : Impl.t list array;  (* reversed *)
  mutable current : int;
  mutable edges : (int * int * int) list;  (* (line, u, v), reversed *)
}

let of_string text =
  let state =
    { arch = None; tasks = -1; names = [||]; impls = [||]; current = -1;
      edges = [] }
  in
  let error lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let tokens line =
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
  in
  let parse_int lineno s k =
    match int_of_string_opt s with
    | Some v -> k v
    | None -> error lineno (Printf.sprintf "expected integer, got %S" s)
  in
  (* The constructors reject out-of-range values; say on which line. *)
  let build lineno make k =
    match make () with
    | v -> k v
    | exception Invalid_argument msg -> error lineno msg
  in
  let lines = String.split_on_char '\n' text in
  let line_count = List.length lines in
  let rec go lineno = function
    | [] -> finish ()
    | line :: rest ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      (match tokens line with
      | [] -> go (lineno + 1) rest
      | [ "arch"; "processors"; p; "recfreq"; f; "device"; d ] ->
        parse_int lineno p (fun processors ->
            match (float_of_string_opt f, Device.by_name d) with
            | None, _ -> error lineno (Printf.sprintf "bad recfreq %S" f)
            | _, None -> error lineno (Printf.sprintf "unknown device %S" d)
            | Some bits_per_tick, Some device ->
              build lineno (Arch.make ~processors ~device ~bits_per_tick)
                (fun arch ->
                  state.arch <- Some arch;
                  go (lineno + 1) rest))
      | [ "tasks"; n ] ->
        parse_int lineno n (fun n ->
            if state.tasks >= 0 then error lineno "second 'tasks' line"
            else if n < 0 then error lineno "negative task count"
            else if n > line_count then
              (* Every task needs its own 'impl' line, so a larger count
                 cannot be valid; reject it before allocating for it. *)
              error lineno
                (Printf.sprintf "task count %d exceeds the %d lines of the \
                                 text" n line_count)
            else begin
              state.tasks <- n;
              state.names <- Array.init n (Printf.sprintf "t%d");
              state.impls <- Array.make n [];
              go (lineno + 1) rest
            end)
      | "task" :: id :: tail ->
        parse_int lineno id (fun id ->
            if id < 0 || id >= state.tasks then
              error lineno "task id out of range (declare 'tasks' first)"
            else begin
              state.current <- id;
              (match tail with
              | [ "name"; name ] -> state.names.(id) <- name
              | [] -> ()
              | _ -> ());
              go (lineno + 1) rest
            end)
      | [ "impl"; "sw"; "time"; t ] ->
        if state.current < 0 then error lineno "impl before any task"
        else
          parse_int lineno t (fun time ->
              build lineno (fun () -> Impl.sw ~time) (fun impl ->
                  state.impls.(state.current) <-
                    impl :: state.impls.(state.current);
                  go (lineno + 1) rest))
      | "impl" :: "hw" :: "time" :: t :: "clb" :: c :: "bram" :: b :: "dsp"
        :: d :: tail ->
        if state.current < 0 then error lineno "impl before any task"
        else
          parse_int lineno t (fun time ->
              parse_int lineno c (fun clb ->
                  parse_int lineno b (fun bram ->
                      parse_int lineno d (fun dsp ->
                          let res = Resource.make ~clb ~bram ~dsp in
                          let finishing module_id =
                            build lineno (Impl.hw ?module_id ~time ~res)
                              (fun impl ->
                                state.impls.(state.current) <-
                                  impl :: state.impls.(state.current);
                                go (lineno + 1) rest)
                          in
                          match tail with
                          | [] -> finishing None
                          | [ "module"; m ] ->
                            parse_int lineno m (fun m -> finishing (Some m))
                          | _ -> error lineno "trailing tokens on impl hw"))))
      | [ "edge"; u; v ] ->
        parse_int lineno u (fun u ->
            parse_int lineno v (fun v ->
                state.edges <- (lineno, u, v) :: state.edges;
                go (lineno + 1) rest))
      | tok :: _ -> error lineno (Printf.sprintf "unknown directive %S" tok))
  and finish () =
    match state.arch with
    | None -> Error "missing 'arch' line"
    | Some arch ->
      if state.tasks < 0 then Error "missing 'tasks' line"
      else begin
        let graph = Graph.create state.tasks in
        let rec add_edges = function
          | [] -> Ok ()
          | (lineno, u, v) :: rest ->
            if u < 0 || u >= state.tasks || v < 0 || v >= state.tasks then
              error lineno (Printf.sprintf "edge (%d, %d) out of range" u v)
            else
              build lineno (fun () -> Graph.add_edge graph u v) (fun () ->
                  add_edges rest)
        in
        match add_edges (List.rev state.edges) with
        | Error _ as e -> e
        | Ok () -> (
          match state.edges with
          | (lineno, _, _) :: _ when not (Graph.is_acyclic graph) ->
            error lineno "the edges up to here form a cycle"
          | _ -> (
            let impls =
              Array.map (fun l -> Array.of_list (List.rev l)) state.impls
            in
            match Instance.make ~arch ~graph ~names:state.names ~impls () with
            | inst -> Ok inst
            | exception Invalid_argument msg -> Error msg))
      end
  in
  go 1 lines

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (In_channel.input_all ic))
  | exception Sys_error msg -> Error msg
