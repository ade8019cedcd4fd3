(* Dead exports: the values a lib/ interface declares that no other
   compilation unit uses, or that only tests use, and the optional
   parameters of used values that no other unit outside test/ passes.

     dead_exports.exe ROOT PARAMS_ALLOWLIST TEST_ONLY_ALLOWLIST

   reads the typed trees of the build context ROOT (after
   `dune build @check`). The .cmti files under ROOT/lib give the
   exports, nested module signatures included; the value identifiers of
   every .cmt under lib, bin, bench, perfbench, examples and test give
   the uses. An export is used when an identifier of another unit
   resolves to its declaration. A unit's own identifiers are skipped:
   they resolve to its implementation, whose declaration ids restart
   from 0 and so collide with its interface's.

   An export whose every use outside its own unit is under test/ is
   test-only. TEST_ONLY_ALLOWLIST exempts such exports, one per line as
   [Module.value reason]; an entry that names no test-only export is
   stale.

   An optional parameter is passed when an application of the export
   in another unit outside test/ gives it an argument: the typed tree
   holds an argument the caller omitted as a ghost-located [None], and
   one the caller wrote (with [~x:v] or [?x:o]) at its source location.
   PARAMS_ALLOWLIST exempts parameters, one per line as
   [Module.value ?label reason]; an entry that names no unpassed
   parameter is stale. Prints each dead or test-only export, unpassed
   parameter and stale entry, and exits 1 if there is one. *)

module Uid = Shape.Uid

let users = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

let rec files ext dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then files ext path
           else if Filename.check_suffix name ext then [ path ]
           else [])

let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional label, _, rest, _) -> label :: optional_labels rest
  | Tarrow (_, _, rest, _) -> optional_labels rest
  | _ -> []

(* Every value a signature declares, as (dotted name, declaration,
   optional parameters). *)
let rec exports prefix (items : Typedtree.signature_item list) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd ->
        [ ( prefix ^ vd.val_name.txt,
            vd.val_val.val_uid,
            optional_labels vd.val_val.val_type ) ]
      | Tsig_module
          { md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _ } ->
        exports (prefix ^ name ^ ".") sg.sig_items
      | _ -> [])
    items

let omitted (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "None"; _ }, []) -> e.exp_loc.loc_ghost
  | _ -> false

(* The keys of an allowlist file: the first [key_words] words of each
   line that is not blank or a comment, followed by a reason. *)
let allowlist ~key_words path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "" ] -> None
         | first :: _ when first.[0] = '#' -> None
         | words when List.length words > key_words ->
           Some (String.concat " " (List.filteri (fun i _ -> i < key_words) words))
         | _ -> failwith ("dead_exports: bad allowlist line: " ^ line))

let () =
  let root = Sys.argv.(1) in
  let allowed = allowlist ~key_words:2 Sys.argv.(2) in
  let test_only_allowed = allowlist ~key_words:1 Sys.argv.(3) in
  let used = Uid.Tbl.create 4096 and used_outside_test = Uid.Tbl.create 4096 in
  let passed = Hashtbl.create 256 in
  let iterator ~outside_test unit =
    { Tast_iterator.default_iterator with
      expr =
        (fun self (e : Typedtree.expression) ->
          (match e.exp_desc with
          | Texp_ident (_, _, { val_uid = Item { comp_unit; _ } as uid; _ })
            when comp_unit <> unit ->
            Uid.Tbl.replace used uid ();
            if outside_test then Uid.Tbl.replace used_outside_test uid ()
          | Texp_apply
              ( { exp_desc =
                    Texp_ident
                      (_, _, { val_uid = Item { comp_unit; _ } as uid; _ });
                  _ },
                args )
            when outside_test && comp_unit <> unit ->
            List.iter
              (fun (label, arg) ->
                match (label, arg) with
                | Asttypes.Optional label, Some arg when not (omitted arg) ->
                  Hashtbl.replace passed (uid, label) ()
                | _ -> ())
              args
          | _ -> ());
          Tast_iterator.default_iterator.expr self e) }
  in
  List.iter
    (fun dir ->
      List.iter
        (fun path ->
          let cmt = Cmt_format.read_cmt path in
          match cmt.cmt_annots with
          | Implementation str ->
            let it =
              iterator ~outside_test:(dir <> "test") cmt.cmt_modname
            in
            it.structure it str
          | _ -> ())
        (files ".cmt" (Filename.concat root dir)))
    users;
  let declared = ref 0 and optionals = ref 0 in
  let exempt = Hashtbl.create 16 and test_only = Hashtbl.create 64 in
  let faults =
    files ".cmti" (Filename.concat root "lib")
    |> List.concat_map (fun path ->
           let cmt = Cmt_format.read_cmt path in
           match (cmt.cmt_annots, cmt.cmt_sourcefile) with
           | Interface sg, Some source ->
             let modname =
               String.capitalize_ascii
                 (Filename.remove_extension (Filename.basename source))
             in
             let values = exports (modname ^ ".") sg.sig_items in
             declared := !declared + List.length values;
             List.concat_map
               (fun (name, uid, labels) ->
                 if not (Uid.Tbl.mem used uid) then
                   [ Printf.sprintf "%s: %s has no user" source name ]
                 else if not (Uid.Tbl.mem used_outside_test uid) then begin
                   Hashtbl.replace test_only name ();
                   if List.mem name test_only_allowed then []
                   else
                     [ Printf.sprintf "%s: %s is used only by tests" source
                         name ]
                 end
                 else begin
                   optionals := !optionals + List.length labels;
                   List.filter_map
                     (fun label ->
                       let key = Printf.sprintf "%s ?%s" name label in
                       if Hashtbl.mem passed (uid, label) then None
                       else if List.mem key allowed then begin
                         Hashtbl.replace exempt key ();
                         None
                       end
                       else
                         Some
                           (Printf.sprintf
                              "%s: %s is passed by no unit outside test/"
                              source key))
                     labels
                 end)
               values
           | _ -> [])
  in
  let stale what table keys =
    List.filter_map
      (fun key ->
        if Hashtbl.mem table key then None
        else Some (Printf.sprintf "allowlist: %s is not %s" key what))
      keys
  in
  let stale =
    stale "an unpassed parameter" exempt allowed
    @ stale "a test-only export" test_only test_only_allowed
  in
  match faults @ stale with
  | [] ->
    Printf.printf
      "dead_exports: all %d lib/ exports used, %d of them only by tests \
       (allowlisted); %d of the %d optional parameters of the others \
       passed outside test/, %d allowlisted\n"
      !declared (Hashtbl.length test_only)
      (!optionals - Hashtbl.length exempt)
      !optionals (Hashtbl.length exempt)
  | faults ->
    List.iter print_endline faults;
    Printf.printf "dead_exports: %d faults\n" (List.length faults);
    exit 1
