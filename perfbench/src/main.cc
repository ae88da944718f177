#include "cli.hh"

int
main(int argc, char **argv)
{
    return perfbench::perfbenchMain(argc, argv);
}
