// Seeded fixture: code outside src/server/ never forks, so
// fd-without-cloexec leaves its fstreams alone.

#include <fstream>
#include <string>

std::string
firstLine(const std::string &path)
{
    std::ifstream in(path); // ok: not forking code
    std::string line;
    std::getline(in, line);
    return line;
}
