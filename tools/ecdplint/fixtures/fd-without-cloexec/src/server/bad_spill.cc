// Seeded fixture: fd-without-cloexec must flag every descriptor this
// forking code opens without its close-on-exec flag, and leave the
// flagged, member and allowed calls alone.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

std::string
readSpill(const std::string &path)
{
    std::ifstream in(path); // BAD: fstreams cannot set O_CLOEXEC
    std::string line;
    std::getline(in, line);
    return line;
}

int
openSpill(const char *path)
{
    int fds[2];
    ::pipe(fds);                          // BAD: no close-on-exec form
    std::FILE *log = std::fopen(path, "w"); // BAD: mode lacks "e"
    (void)log;
    return ::open(path, O_RDONLY);        // BAD: no O_CLOEXEC
}

int
openSpillCloexec(const char *path)
{
    int fds[2];
    ::pipe2(fds, O_CLOEXEC);                 // ok
    std::FILE *log = std::fopen(path, "we"); // ok
    (void)log;
    int s = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0); // ok
    (void)s;
    // ecdplint-allow(fd-without-cloexec): the child's stdin, on purpose
    int in = ::open("/dev/null", O_RDONLY);
    (void)in;
    return ::open(path, O_RDONLY | O_CLOEXEC); // ok
}

struct Spill
{
    void open(const char *path);
};

void
reopen(Spill &spill, const char *path)
{
    spill.open(path); // ok: a member call, not open(2)
}
