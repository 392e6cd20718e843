"""The command line's handlers, one module per command or family of commands.

:mod:`scholargraph.cli` imports a module here only for the command that
runs (its table names each command's module), and calls its
``configure(parser, command)``, which adds the command's options to its
parser and returns the handler, called as ``handler(args, cfg)``.  Each
handler imports the library modules it uses when it runs, so parsing
``COMMAND --help`` compiles none of them.
"""
