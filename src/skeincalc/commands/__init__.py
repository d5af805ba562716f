"""One module per command, each exposing run(args).

cli.main imports the module of the command it runs after parsing, so a call
compiles only its own handler and the layers that handler imports.
"""
