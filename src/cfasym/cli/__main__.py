from . import console_main
console_main()
