"""One module per ``repro`` sub-command, named after it (``-`` as ``_``), each
with a ``run(args) -> int``; :func:`repro.cli.main` imports only the one selected."""
